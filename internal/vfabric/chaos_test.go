package vfabric

import (
	"math"
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
)

func TestAddTenantValidation(t *testing.T) {
	_, f, st := starFabric(3, 12)
	pair := func(src, dst topo.NodeID) []chaos.PairSpec {
		return []chaos.PairSpec{{Src: src, Dst: dst}}
	}
	good := chaos.TenantSpec{VF: 1, GuaranteeBps: 1e9, WeightClass: 2,
		Pairs: pair(st.Hosts[0], st.Hosts[1])}
	bad := []chaos.TenantSpec{
		{VF: 2, GuaranteeBps: 0, Pairs: pair(st.Hosts[0], st.Hosts[1])},   // no guarantee
		{VF: 2, GuaranteeBps: 1e9, Pairs: pair(st.Hosts[0], st.Hosts[0])}, // src == dst
		{VF: 2, GuaranteeBps: 1e9, Pairs: pair(st.Hosts[0], st.Center)},   // switch endpoint
		{VF: 2, GuaranteeBps: 1e9, Pairs: pair(st.Hosts[0], 99)},          // out of range
		{VF: 2, GuaranteeBps: 1e9, Pairs: []chaos.PairSpec{ // one bad pair poisons the spec
			{Src: st.Hosts[0], Dst: st.Hosts[1]}, {Src: st.Hosts[1], Dst: -1}}},
	}
	if !f.AddTenant(good) {
		t.Fatal("valid tenant rejected")
	}
	if f.AddTenant(good) {
		t.Error("duplicate VF accepted")
	}
	flows := len(f.Flows)
	for i, spec := range bad {
		if f.AddTenant(spec) {
			t.Errorf("invalid spec %d accepted", i)
		}
		if f.VFs[2] != nil || len(f.Flows) != flows {
			t.Fatalf("rejected spec %d mutated the fabric", i)
		}
	}
	if !f.RemoveTenant(1) || f.VFs[1] != nil || len(f.Flows) != 0 {
		t.Fatal("RemoveTenant did not tear the VF down")
	}
	if f.RemoveTenant(1) {
		t.Error("double removal accepted")
	}
	// The id is free for reuse after removal.
	if !f.AddTenant(good) {
		t.Error("freed VF id rejected")
	}
}

func TestRestartCoreAgentUnknownNode(t *testing.T) {
	_, f, st := starFabric(2, 13)
	if !f.RestartCoreAgent(st.Center) {
		t.Error("switch agent restart rejected")
	}
	if f.RestartCoreAgent(999) {
		t.Error("restart of agent-less node accepted")
	}
	if got := f.FaultStats().CoreRestarts; got != 1 {
		t.Errorf("CoreRestarts = %d, want 1", got)
	}
}

// TestScenarioRestartAndChurn is the end-to-end satellite check: a μFAB-C
// restart wipes the core registers, live tenants rebuild them without
// double-counting, and an arrive/depart churn cycle leaves no Φ residue
// with the silent-quit cleanup running throughout.
func TestScenarioRestartAndChurn(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(4, topo.Gbps(10), 5*sim.Microsecond)
	f := New(eng, st.Graph, Config{Seed: 6,
		Core: ufabc.Config{CleanupPeriod: 2 * sim.Millisecond}})
	f.StartCoreCleanup()
	for i, g := range []float64{2e9, 1e9} {
		vf := f.AddVF(int32(i+1), g, 2)
		backlog(f.AddFlow(vf, st.Hosts[i], st.Hosts[3], 0))
	}
	down := st.Graph.Paths(st.Hosts[0], st.Hosts[3], 1)[0][1] // center→H4
	core := f.Cores[st.Center]
	phiAt := func() float64 { phi, _ := core.Subscription(down); return phi }

	inj := f.ApplyScenario(chaos.New("restart-churn").
		RestartAgent(4*sim.Millisecond, st.Center).
		ArriveTenant(6*sim.Millisecond, chaos.TenantSpec{
			VF: 7, GuaranteeBps: 1e9, WeightClass: 2,
			Pairs: []chaos.PairSpec{{Src: st.Hosts[2], Dst: st.Hosts[3]}},
		}).
		DepartTenant(9*sim.Millisecond, 7).
		DepartTenant(9*sim.Millisecond+1, 99)) // unknown VF → rejected

	var phiBefore, phiWiped, phiRebuilt, phiPeak float64
	eng.At(4*sim.Millisecond-1, func() { phiBefore = phiAt() })
	eng.At(4*sim.Millisecond+1, func() { phiWiped = phiAt() })
	eng.At(6*sim.Millisecond-1, func() { phiRebuilt = phiAt() })
	eng.At(8*sim.Millisecond, func() { phiPeak = phiAt() })
	eng.RunUntil(14 * sim.Millisecond)
	phiFinal := phiAt()

	if inj.Rejected() != 1 {
		t.Errorf("Rejected() = %d, want 1 (unknown VF)\n%v", inj.Rejected(), inj.Log)
	}
	for _, k := range []chaos.Kind{chaos.AgentRestart, chaos.TenantArrive} {
		if inj.Applied(k) != 1 {
			t.Errorf("Applied(%v) = %d, want 1", k, inj.Applied(k))
		}
	}
	if phiBefore < 25 {
		t.Fatalf("Φ = %v before restart, want ≈30 (2G+1G tenants)", phiBefore)
	}
	if phiWiped != 0 {
		t.Errorf("Φ = %v right after restart, want 0 (registers wiped)", phiWiped)
	}
	if math.Abs(phiRebuilt-phiBefore) > 0.5 {
		t.Errorf("Φ rebuilt to %v, want %v (no loss, no double count)", phiRebuilt, phiBefore)
	}
	if phiPeak < phiRebuilt+5 {
		t.Errorf("Φ = %v with the churn tenant active, want ≈%v+10", phiPeak, phiRebuilt)
	}
	if math.Abs(phiFinal-phiBefore) > 0.5 {
		t.Errorf("Φ = %v after churn drained, want %v (no residue)", phiFinal, phiBefore)
	}
	if f.VFs[7] != nil || len(f.Flows) != 2 {
		t.Errorf("churn tenant not torn down: %d flows", len(f.Flows))
	}
	if got := f.FaultStats().CoreRestarts; got != 1 {
		t.Errorf("CoreRestarts = %d, want 1", got)
	}
}

// A departed tenant must leave nothing scheduled behind. Every multi-path
// pair runs a periodic candidate scan; RemovePair used to leave it ticking
// forever, one heap entry, closure and Pair per tenant that ever lived — a
// churning daemon's event queue and memory grew without bound.
func TestTenantChurnLeavesNoTimers(t *testing.T) {
	eng := sim.New()
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	f := New(eng, ft.Graph, Config{Seed: 3})
	eng.RunUntil(sim.Millisecond)
	idle := eng.Pending() // the edges' token loops
	src, dst := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]
	spec := chaos.TenantSpec{VF: 1, GuaranteeBps: 1e9, WeightClass: 2,
		Pairs: []chaos.PairSpec{{Src: src, Dst: dst, BacklogBytes: 1 << 20}}}
	for i := 0; i < 200; i++ {
		if !f.AddTenant(spec) {
			t.Fatalf("cycle %d: tenant rejected", i)
		}
		if n := f.Flows[0].Pair.PathCount(); n < 2 {
			t.Fatalf("pair has %d candidate paths; the scan timer needs ≥ 2", n)
		}
		eng.RunUntil(eng.Now() + 50*sim.Microsecond)
		if !f.RemoveTenant(1) {
			t.Fatalf("cycle %d: tenant not removed", i)
		}
	}
	// Cancelled ticks leave the queue when their time comes, and the scan
	// period is the longest timer a pair owns.
	eng.RunUntil(eng.Now() + f.Edge(src).Config().CandidateProbeInterval + sim.Millisecond)
	if got := eng.Pending(); got != idle {
		t.Fatalf("%d events pending after 200 arrive/depart cycles and a quiet scan period, want the idle fabric's %d", got, idle)
	}
}
