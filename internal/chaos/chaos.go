// Package chaos is μFAB's deterministic fault-injection subsystem. A
// Scenario is a declarative list of timed fault events — node crashes,
// link loss, gray (partial) link degradation, probe/INT filters, μFAB-C
// agent restarts with register state loss, and tenant churn — and an
// Injector schedules those events on the simulation engine and records a
// machine-readable injection log that experiments assert against.
//
// The package sits below vfabric: it drives any Target (vfabric.Fabric
// implements the interface) through the dataplane's per-link fault state
// and the target's agent/tenant hooks. All randomness used by injected
// faults (packet loss, probe corruption) lives in the dataplane's seeded
// fault RNG, so a scenario replays identically for a given seed — the
// property the failure-suite golden metrics and the `-jobs` determinism
// gate rely on.
package chaos

import (
	"encoding/json"
	"fmt"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// Kind enumerates the fault event types a Scenario can carry.
type Kind uint8

// Fault event kinds.
const (
	// NodeCrash fails a node: packets arriving at it or queued to leave
	// it are dropped (Fig 15's Core1 crash).
	NodeCrash Kind = iota
	// NodeRecover clears a node failure.
	NodeRecover
	// LinkDown takes a single directional link (or the duplex pair) down
	// while its endpoints stay alive — the BFD-visible black-hole case.
	LinkDown
	// linkUp brings a downed link back.
	linkUp
	// LinkDegrade applies a gray fault: capacity scaling, added latency,
	// random loss, and/or probe drop/corruption filters.
	LinkDegrade
	// linkRestore clears a link's gray degradation (not its down state).
	linkRestore
	// AgentRestart reboots the μFAB-C agent on a node: its Bloom/Φ/W
	// register state is lost and rebuilds from re-registration.
	AgentRestart
	// TenantArrive creates a tenant VF with backlogged VM-pairs.
	TenantArrive
	// TenantDepart tears a tenant VF and all its VM-pairs down.
	TenantDepart
)

var kindNames = map[Kind]string{
	NodeCrash:    "node-crash",
	NodeRecover:  "node-recover",
	LinkDown:     "link-down",
	linkUp:       "link-up",
	LinkDegrade:  "link-degrade",
	linkRestore:  "link-restore",
	AgentRestart: "agent-restart",
	TenantArrive: "tenant-arrive",
	TenantDepart: "tenant-depart",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its stable name, so scenario JSON files
// are human-writable.
func (k Kind) MarshalText() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown kind %d", uint8(k))
	}
	return []byte(s), nil
}

// UnmarshalText decodes a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	for kk, s := range kindNames {
		if s == string(b) {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("chaos: unknown kind %q", string(b))
}

// PairSpec describes one VM-pair of an arriving tenant.
type PairSpec struct {
	Src topo.NodeID `json:"src"`
	Dst topo.NodeID `json:"dst"`
	// BacklogBytes fills the pair's demand buffer on arrival; <= 0 means
	// an effectively infinite backlog.
	BacklogBytes int64 `json:"backlog_bytes,omitempty"`
}

// TenantSpec describes a tenant VF created by a TenantArrive event.
type TenantSpec struct {
	VF           int32      `json:"vf"`
	GuaranteeBps float64    `json:"guarantee_bps"`
	WeightClass  int        `json:"weight_class"`
	Pairs        []PairSpec `json:"pairs"`
}

// Event is one timed fault action. Times are relative to when the
// scenario is injected (experiments inject at t = 0, making them
// absolute).
type Event struct {
	// At is when the event fires, in simulated picoseconds
	// (sim.Duration) after injection.
	At   sim.Duration `json:"at_ps"`
	Kind Kind         `json:"kind"`
	// Node targets node events (NodeCrash/NodeRecover/AgentRestart).
	Node topo.NodeID `json:"node"`
	// Link targets link events; Duplex applies them to the reverse
	// direction as well.
	Link   topo.LinkID `json:"link"`
	Duplex bool        `json:"duplex,omitempty"`
	// Degradation parameterizes LinkDegrade.
	Degradation *dataplane.Degradation `json:"degradation,omitempty"`
	// Tenant parameterizes TenantArrive; VF targets TenantDepart.
	Tenant *TenantSpec `json:"tenant,omitempty"`
	VF     int32       `json:"vf,omitempty"`
	// Note is free-form, carried into the injection log.
	Note string `json:"note,omitempty"`
}

// detail renders the event's target for the injection log.
func (ev *Event) detail() string {
	switch ev.Kind {
	case NodeCrash, NodeRecover, AgentRestart:
		return fmt.Sprintf("node=%d", ev.Node)
	case LinkDown, linkUp, linkRestore:
		return fmt.Sprintf("link=%d duplex=%v", ev.Link, ev.Duplex)
	case LinkDegrade:
		d := ev.Degradation
		if d == nil {
			return fmt.Sprintf("link=%d (no degradation)", ev.Link)
		}
		return fmt.Sprintf("link=%d duplex=%v cap×%.2g +%v loss=%.3g probedrop=%.3g probecorrupt=%.3g",
			ev.Link, ev.Duplex, d.CapacityScale, d.ExtraDelay, d.LossProb, d.ProbeDropProb, d.ProbeCorruptProb)
	case TenantArrive:
		if ev.Tenant == nil {
			return "(no tenant spec)"
		}
		return fmt.Sprintf("vf=%d guarantee=%.3gG pairs=%d",
			ev.Tenant.VF, ev.Tenant.GuaranteeBps/1e9, len(ev.Tenant.Pairs))
	case TenantDepart:
		return fmt.Sprintf("vf=%d", ev.VF)
	}
	return ""
}

// Scenario is a named, declarative fault schedule.
type Scenario struct {
	Name   string  `json:"name"`
	Events []Event `json:"events"`
	// ExpectExcusedMin declares how many excused audit findings this
	// scenario must produce at minimum when run under the online auditor —
	// the assertion that the injected damage was actually observed. Zero
	// means no expectation.
	ExpectExcusedMin int `json:"expect_excused_min,omitempty"`
}

// ExpectExcused sets ExpectExcusedMin and returns the scenario for
// chaining.
func (s *Scenario) ExpectExcused(n int) *Scenario {
	s.ExpectExcusedMin = n
	return s
}

// New returns an empty scenario.
func New(name string) *Scenario { return &Scenario{Name: name} }

// add appends an event and returns the scenario for chaining.
func (s *Scenario) add(ev Event) *Scenario {
	s.Events = append(s.Events, ev)
	return s
}

// CrashNode schedules a node failure.
func (s *Scenario) CrashNode(at sim.Duration, node topo.NodeID) *Scenario {
	return s.add(Event{At: at, Kind: NodeCrash, Node: node})
}

// RecoverNode schedules a node recovery.
func (s *Scenario) RecoverNode(at sim.Duration, node topo.NodeID) *Scenario {
	return s.add(Event{At: at, Kind: NodeRecover, Node: node})
}

// LinkDown schedules a link (duplex: both directions) going dark.
func (s *Scenario) LinkDown(at sim.Duration, link topo.LinkID, duplex bool) *Scenario {
	return s.add(Event{At: at, Kind: LinkDown, Link: link, Duplex: duplex})
}

// LinkUp schedules a downed link's return.
func (s *Scenario) LinkUp(at sim.Duration, link topo.LinkID, duplex bool) *Scenario {
	return s.add(Event{At: at, Kind: linkUp, Link: link, Duplex: duplex})
}

// Flap schedules n down/up cycles starting at `at`: down for downFor,
// then up until the next period boundary.
func (s *Scenario) Flap(at sim.Duration, link topo.LinkID, duplex bool, n int, period, downFor sim.Duration) *Scenario {
	for i := 0; i < n; i++ {
		t := at + sim.Duration(i)*period
		s.LinkDown(t, link, duplex)
		s.LinkUp(t+downFor, link, duplex)
	}
	return s
}

// Degrade schedules a gray fault on a link.
func (s *Scenario) Degrade(at sim.Duration, link topo.LinkID, duplex bool, d dataplane.Degradation) *Scenario {
	dd := d
	return s.add(Event{At: at, Kind: LinkDegrade, Link: link, Duplex: duplex, Degradation: &dd})
}

// Restore schedules the removal of a link's gray fault.
func (s *Scenario) Restore(at sim.Duration, link topo.LinkID, duplex bool) *Scenario {
	return s.add(Event{At: at, Kind: linkRestore, Link: link, Duplex: duplex})
}

// RestartAgent schedules a μFAB-C agent restart (register state loss).
func (s *Scenario) RestartAgent(at sim.Duration, node topo.NodeID) *Scenario {
	return s.add(Event{At: at, Kind: AgentRestart, Node: node})
}

// ArriveTenant schedules a tenant arrival.
func (s *Scenario) ArriveTenant(at sim.Duration, spec TenantSpec) *Scenario {
	sp := spec
	return s.add(Event{At: at, Kind: TenantArrive, Tenant: &sp})
}

// DepartTenant schedules a tenant departure.
func (s *Scenario) DepartTenant(at sim.Duration, vf int32) *Scenario {
	return s.add(Event{At: at, Kind: TenantDepart, VF: vf})
}

// Clone returns a deep copy of the scenario: the event list, each
// event's degradation and tenant spec (with its pair list) are all
// duplicated, so a shrinker can mutate the copy without disturbing the
// original.
func (s *Scenario) Clone() *Scenario {
	if s == nil {
		return nil
	}
	cp := &Scenario{Name: s.Name, ExpectExcusedMin: s.ExpectExcusedMin}
	cp.Events = make([]Event, len(s.Events))
	copy(cp.Events, s.Events)
	for i := range cp.Events {
		ev := &cp.Events[i]
		if ev.Degradation != nil {
			d := *ev.Degradation
			ev.Degradation = &d
		}
		if ev.Tenant != nil {
			t := *ev.Tenant
			t.Pairs = append([]PairSpec(nil), ev.Tenant.Pairs...)
			ev.Tenant = &t
		}
	}
	return cp
}

// Encode renders the scenario as indented JSON.
func (s *Scenario) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Parse decodes a scenario from JSON.
func Parse(b []byte) (*Scenario, error) {
	s := &Scenario{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	for i := range s.Events {
		if s.Events[i].At < 0 {
			return nil, fmt.Errorf("chaos: event %d at negative time %v", i, s.Events[i].At)
		}
	}
	return s, nil
}
