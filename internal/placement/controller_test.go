package placement

import (
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// fakeMat is a Materializer recording calls; failNext forces the next
// AddTenant to fail (exercising the commit rollback).
type fakeMat struct {
	added    []chaos.TenantSpec
	removed  []int32
	failNext bool
}

func (m *fakeMat) AddTenant(spec chaos.TenantSpec) bool {
	if m.failNext {
		m.failNext = false
		return false
	}
	m.added = append(m.added, spec)
	return true
}

func (m *fakeMat) RemoveTenant(vf int32) bool {
	m.removed = append(m.removed, vf)
	return true
}

func newTestController(t *testing.T, cfg Config) (*Controller, *sim.Engine, *fakeMat) {
	t.Helper()
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	mat := &fakeMat{}
	return NewController(eng, tb.Graph, mat, cfg), eng, mat
}

func TestControllerAdmit(t *testing.T) {
	c, eng, mat := newTestController(t, Config{})
	var got Decision
	c.Submit(Request{ID: 1, GuaranteeBps: 1e9, VMs: 3, WeightClass: 2}, func(d Decision) { got = d })
	eng.Run()
	if !got.Accepted {
		t.Fatalf("rejected: %s", got.Reason)
	}
	if len(got.Hosts) != 3 || len(got.Pairs) != 2 {
		t.Fatalf("hosts %v pairs %v", got.Hosts, got.Pairs)
	}
	if got.DecidedAt-got.SubmittedAt != sim.Time(10*sim.Microsecond) {
		t.Fatalf("decision latency = %v", got.DecidedAt-got.SubmittedAt)
	}
	if len(mat.added) != 1 || mat.added[0].VF != 1 || len(mat.added[0].Pairs) != 2 {
		t.Fatalf("materialized %+v", mat.added)
	}
	if err := c.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Admitted != 1 || st.Active != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !c.Release(1) {
		t.Fatal("release failed")
	}
	if len(mat.removed) != 1 || mat.removed[0] != 1 {
		t.Fatalf("removed %v", mat.removed)
	}
	if got := c.Fleet().FreeSlots(); got != 8*c.Fleet().SlotsPerHost {
		t.Fatalf("slots not returned: free = %d", got)
	}
}

// The testbed's 8 hosts have 10G uplinks: at factor 1.0 the host uplink
// admits at most 10G of Σ-guarantee, so the third 4G tenant chain
// anchored on the same first-fit hosts must bounce with "headroom".
func TestControllerHeadroomReject(t *testing.T) {
	c, eng, _ := newTestController(t, Config{SlotsPerHost: 16})
	var decisions []Decision
	for i := int32(1); i <= 3; i++ {
		c.Submit(Request{ID: i, GuaranteeBps: 4e9, VMs: 2}, func(d Decision) { decisions = append(decisions, d) })
	}
	eng.Run()
	if len(decisions) != 3 {
		t.Fatalf("%d decisions", len(decisions))
	}
	if !decisions[0].Accepted || !decisions[1].Accepted {
		t.Fatalf("first two rejected: %+v", decisions)
	}
	if decisions[2].Accepted || decisions[2].Reason != "headroom" {
		t.Fatalf("third decision = %+v, want headroom reject", decisions[2])
	}
	// At oversubscription 2.0 the same third tenant fits.
	c2, eng2, _ := newTestController(t, Config{SlotsPerHost: 16, Oversubscription: 2.0})
	var last Decision
	for i := int32(1); i <= 3; i++ {
		c2.Submit(Request{ID: i, GuaranteeBps: 4e9, VMs: 2}, func(d Decision) { last = d })
	}
	eng2.Run()
	if !last.Accepted {
		t.Fatalf("oversub=2 still rejected: %s", last.Reason)
	}
}

func TestControllerFIFOLatency(t *testing.T) {
	c, eng, _ := newTestController(t, Config{decisionLatency: 5 * sim.Microsecond})
	var waits []sim.Duration
	for i := int32(1); i <= 3; i++ {
		c.Submit(Request{ID: i, GuaranteeBps: 1e8, VMs: 2}, func(d Decision) {
			waits = append(waits, sim.Duration(d.DecidedAt-d.SubmittedAt))
		})
	}
	eng.Run()
	want := []sim.Duration{5 * sim.Microsecond, 10 * sim.Microsecond, 15 * sim.Microsecond}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("request %d waited %v, want %v (FIFO queue)", i+1, waits[i], want[i])
		}
	}
}

func TestControllerInvalidRequests(t *testing.T) {
	c, eng, _ := newTestController(t, Config{})
	var rs []Decision
	c.Submit(Request{ID: 1, GuaranteeBps: 0, VMs: 2}, func(d Decision) { rs = append(rs, d) })
	c.Submit(Request{ID: 2, GuaranteeBps: 1e9, VMs: 0}, func(d Decision) { rs = append(rs, d) })
	c.Submit(Request{ID: 3, GuaranteeBps: 1e9, VMs: 2}, func(d Decision) { rs = append(rs, d) })
	c.Submit(Request{ID: 3, GuaranteeBps: 1e9, VMs: 2}, func(d Decision) { rs = append(rs, d) })
	eng.Run()
	if rs[0].Accepted || rs[0].Reason != "invalid" {
		t.Fatalf("zero guarantee: %+v", rs[0])
	}
	if rs[1].Accepted || rs[1].Reason != "invalid" {
		t.Fatalf("zero VMs: %+v", rs[1])
	}
	if !rs[2].Accepted {
		t.Fatalf("valid request rejected: %+v", rs[2])
	}
	if rs[3].Accepted || rs[3].Reason != "invalid" {
		t.Fatalf("duplicate id: %+v", rs[3])
	}
}

// AdmitSpec/ReleaseTenant implement the chaos.Admission gate: explicit
// specs check headroom against the same ledger.
func TestControllerAdmitSpec(t *testing.T) {
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	c := NewController(eng, tb.Graph, nil, Config{})
	s1, s2 := tb.Servers[0], tb.Servers[1]
	ok := c.AdmitSpec(chaos.TenantSpec{VF: 1, GuaranteeBps: 6e9,
		Pairs: []chaos.PairSpec{{Src: s1, Dst: s2}}})
	if !ok {
		t.Fatal("first 6G spec rejected")
	}
	// Second 6G chain over the same hosts exceeds the 10G uplink.
	ok = c.AdmitSpec(chaos.TenantSpec{VF: 2, GuaranteeBps: 6e9,
		Pairs: []chaos.PairSpec{{Src: s1, Dst: s2}}})
	if ok {
		t.Fatal("oversubscribing spec admitted")
	}
	if !c.ReleaseTenant(1) {
		t.Fatal("release failed")
	}
	ok = c.AdmitSpec(chaos.TenantSpec{VF: 2, GuaranteeBps: 6e9,
		Pairs: []chaos.PairSpec{{Src: s1, Dst: s2}}})
	if !ok {
		t.Fatal("spec rejected after headroom freed")
	}
	if err := c.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
	// A spec naming an endpoint outside the graph (a scenario file is
	// outside input) is a rejection, not an index panic.
	for _, bad := range []topo.NodeID{9999, -1, tb.ToRs[0]} {
		if c.AdmitSpec(chaos.TenantSpec{VF: 3, GuaranteeBps: 1e9,
			Pairs: []chaos.PairSpec{{Src: s1, Dst: bad}}}) {
			t.Fatalf("spec with endpoint %d admitted", bad)
		}
	}
	if st := c.Stats(); st.Admitted != 2 || st.Rejected != 4 || st.Active != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := c.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
}
