package ufabe

import "slices"

// Tenancy is a fabric's tenant table, held once and shared by every edge
// agent built on it: each VF's hose tokens φ^a, its WFQ weight class and its
// place in the registration order of that class. An edge keeps sender state
// only for the VFs it sources pairs of (Agent.vfs, created by the first
// AddPair); its receive side reads hoses here. A tenant of a 1024-host
// fabric is one record, not 1024 (the paper's context table holds the
// VM-pairs the host sources, §4.1).
//
// Add and Remove run between simulation steps (set-up or a coordinator
// barrier); the shards only read the table. The zero value is an empty
// table.
type Tenancy struct {
	byID map[int32]*tenant
	// roster[c] is weight class c's tenants in registration order. A WFQ
	// cursor is a position here (wfqClass.rr).
	roster [NumWeightClasses][]*tenant
	// agents are the edges sharing the table, in construction order: the
	// order Remove tears their pairs down in. timers holds their armed
	// timers, one table per scheduler.
	agents []*Agent
	timers []*timerTable
}

// tenant is one VF's fabric-wide record.
type tenant struct {
	id    int32
	class int
	// hose is φ^a: the VF's hose tokens, the same on the sending and the
	// receiving side.
	hose float64
	// pos is the tenant's index in roster[class], kept current by Remove.
	pos int
}

// Add registers a tenant VF with the given hose tokens and WFQ weight class
// (clamped into 0..7) for every agent sharing the table. Returns false,
// changing nothing, for an id already registered.
func (t *Tenancy) Add(id int32, hoseTokens float64, class int) bool {
	if _, ok := t.byID[id]; ok {
		return false
	}
	if t.byID == nil {
		t.byID = make(map[int32]*tenant)
	}
	class = min(max(class, 0), NumWeightClasses-1)
	tn := &tenant{id: id, class: class, hose: hoseTokens, pos: len(t.roster[class])}
	t.byID[id] = tn
	t.roster[class] = append(t.roster[class], tn)
	return true
}

// Remove deregisters a tenant VF. Every agent that sources it tears its
// pairs down first (finish probes included, so core registers deallocate),
// in the agents' construction order. Returns false for an unknown VF, so
// churn scenarios can issue departures idempotently.
func (t *Tenancy) Remove(id int32) bool {
	tn := t.byID[id]
	if tn == nil {
		return false
	}
	delete(t.byID, id)
	r := slices.Delete(t.roster[tn.class], tn.pos, tn.pos+1)
	for _, later := range r[tn.pos:] {
		later.pos--
	}
	t.roster[tn.class] = r
	for _, a := range t.agents {
		a.dropVF(tn)
	}
	return true
}
