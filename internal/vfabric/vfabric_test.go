package vfabric

import (
	"math"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
)

// backlog keeps a flow permanently backlogged.
func backlog(fl *Flow) { fl.Buffer.Add(1 << 40) }

// starFabric builds an n-host star at 10G with the paper's ≈24 μs testbed
// baseRTT (5 μs per-hop propagation).
func starFabric(n int, seed int64) (*sim.Engine, *Fabric, *topo.Star) {
	eng := sim.New()
	st := topo.NewStar(n, topo.Gbps(10), 5*sim.Microsecond)
	f := New(eng, st.Graph, Config{Seed: seed})
	return eng, f, st
}

func TestSingleFlowReachesLineRate(t *testing.T) {
	eng, f, st := starFabric(2, 1)
	vf := f.AddVF(1, 1e9, 3)
	fl := f.AddFlow(vf, st.Hosts[0], st.Hosts[1], 0)
	backlog(fl)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(5 * sim.Millisecond)
	stop()
	f.SampleRates()
	// Work conservation: a single backlogged flow should reach ≈ the
	// 95% target utilization of 10G regardless of its 1G guarantee.
	rate := fl.Rate(2*sim.Millisecond, 5*sim.Millisecond)
	if rate < 8.5e9 {
		t.Fatalf("single flow rate = %.2f Gbps, want ≥8.5 (work conservation)", rate/1e9)
	}
	if rate > 10.1e9 {
		t.Fatalf("rate = %v exceeds line rate", rate)
	}
}

func TestProportionalSharing(t *testing.T) {
	// Three VFs with guarantees 1:2:5 from different hosts into one
	// host: rates must converge to ≈1.19:2.38:5.94 G (95% of 10G split
	// proportionally — §3.3).
	eng, f, st := starFabric(4, 2)
	g := []float64{1e9, 2e9, 5e9}
	var flows []*Flow
	for i, gi := range g {
		vf := f.AddVF(int32(i+1), gi, i)
		fl := f.AddFlow(vf, st.Hosts[i], st.Hosts[3], 0)
		backlog(fl)
		flows = append(flows, fl)
	}
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(10 * sim.Millisecond)
	stop()
	f.SampleRates()
	total := 0.0
	for i, fl := range flows {
		rate := fl.Rate(5*sim.Millisecond, 10*sim.Millisecond)
		want := g[i] / 8e9 * 0.95 * 10e9
		if math.Abs(rate-want) > 0.25*want {
			t.Errorf("flow %d rate = %.2f G, want ≈%.2f G", i, rate/1e9, want/1e9)
		}
		if rate < g[i]*0.9 {
			t.Errorf("flow %d below guarantee: %.2f < %.2f G", i, rate/1e9, g[i]/1e9)
		}
		total += rate
	}
	if total < 0.85*10e9 {
		t.Errorf("total = %.2f G, want high utilization", total/1e9)
	}
}

func TestWorkConservationReclaim(t *testing.T) {
	// VF1 (5G guarantee) goes idle; VF2 (1G) should absorb the freed
	// bandwidth, then release it when VF1 returns.
	eng, f, st := starFabric(3, 3)
	vf1 := f.AddVF(1, 5e9, 5)
	vf2 := f.AddVF(2, 1e9, 2)
	fl1 := f.AddFlow(vf1, st.Hosts[0], st.Hosts[2], 0)
	fl2 := f.AddFlow(vf2, st.Hosts[1], st.Hosts[2], 0)
	backlog(fl1)
	backlog(fl2)
	stop := f.StartSampling(100 * sim.Microsecond)
	// Drain fl1's demand at 4 ms by replacing its buffer contents: we
	// cannot remove bytes, so instead use a finite backlog that runs
	// out. Rebuild: give fl1 a finite demand that drains around ~4 ms.
	_ = fl1
	eng.RunUntil(4 * sim.Millisecond)
	// Phase 2: fl1 idle (consume its remaining demand by removing it).
	fl1.Buffer.Consume(fl1.Buffer.Pending())
	eng.RunUntil(9 * sim.Millisecond)
	// Phase 3: fl1 returns.
	backlog(fl1)
	eng.RunUntil(14 * sim.Millisecond)
	stop()
	f.SampleRates()

	phase1 := fl2.Rate(2*sim.Millisecond, 4*sim.Millisecond)
	phase2 := fl2.Rate(6*sim.Millisecond, 9*sim.Millisecond)
	phase3 := fl2.Rate(12*sim.Millisecond, 14*sim.Millisecond)
	phase3fl1 := fl1.Rate(12*sim.Millisecond, 14*sim.Millisecond)
	// Phase 1: proportional share ≈ 1/6·9.5G ≈ 1.6G.
	if phase1 > 3.2e9 {
		t.Errorf("phase1 fl2 = %.2f G, want ≈1.6 G", phase1/1e9)
	}
	// Phase 2: fl2 alone → near full rate.
	if phase2 < 7e9 {
		t.Errorf("phase2 fl2 = %.2f G, want ≥7 G (work conservation)", phase2/1e9)
	}
	// Phase 3: fl1 grabs back ≥ its 5G guarantee; fl2 recedes.
	if phase3fl1 < 4.5e9 {
		t.Errorf("phase3 fl1 = %.2f G, want ≥4.5 G (guarantee reclaim)", phase3fl1/1e9)
	}
	if phase3 > 3.2e9 {
		t.Errorf("phase3 fl2 = %.2f G, want back to ≈1.6 G", phase3/1e9)
	}
}

func TestIncastBoundedQueue(t *testing.T) {
	// 8-to-1 incast of backlogged flows starting simultaneously: the
	// bottleneck queue must stay bounded near 3·BDP (§3.4).
	eng, f, st := starFabric(9, 4)
	for i := 0; i < 8; i++ {
		vf := f.AddVF(int32(i+1), 500e6, 2)
		fl := f.AddFlow(vf, st.Hosts[i], st.Hosts[8], 0)
		backlog(fl)
	}
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(5 * sim.Millisecond)
	stop()
	// BDP of the 10G star path: baseRTT ≈ 2×(2.2 μs + 1.2 μs)... use
	// the graph's diameter.
	// The paper bounds inflight by 3·C·T_max; the TX-rate estimator lag
	// and per-flow MTU floors add a small constant, so allow 8·BDP here
	// (Fig 12 compares the transient against the baselines, where the
	// gap is orders of magnitude).
	bdp := int(10e9 * f.Graph.Diameter(1500).Seconds() / 8)
	maxQ := f.MaxQueueBytes()
	if maxQ > 8*bdp {
		t.Errorf("max queue = %d bytes, want ≤ 8·BDP = %d", maxQ, 8*bdp)
	}
	// All flows keep their guarantee.
	f.SampleRates()
	for i, fl := range f.Flows {
		rate := fl.Rate(2*sim.Millisecond, 5*sim.Millisecond)
		if rate < 0.8*10e9/8*0.95/1 {
			// Each of 8 equal flows should get ≈ 9.5G/8 ≈ 1.19G.
			if rate < 0.8e9 {
				t.Errorf("flow %d rate = %.2f G, want ≈1.19 G", i, rate/1e9)
			}
		}
	}
}

func TestGuaranteeUnderIncastOfAnotherVF(t *testing.T) {
	// VF1 (5G) on H1→H4 shares the bottleneck with a 2-host incast of
	// VF2 (1G hose): VF1 must keep ≥ 5G.
	eng, f, st := starFabric(4, 5)
	vf1 := f.AddVF(1, 5e9, 5)
	vf2 := f.AddVF(2, 1e9, 2)
	fl1 := f.AddFlow(vf1, st.Hosts[0], st.Hosts[3], 0)
	backlog(fl1)
	eng.RunUntil(2 * sim.Millisecond)
	for i := 1; i <= 2; i++ {
		fl := f.AddFlow(vf2, st.Hosts[i], st.Hosts[3], 0)
		backlog(fl)
	}
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(8 * sim.Millisecond)
	stop()
	f.SampleRates()
	rate := fl1.Rate(5*sim.Millisecond, 8*sim.Millisecond)
	if rate < 4.5e9 {
		t.Errorf("VF1 rate = %.2f G under VF2 incast, want ≥4.5 G", rate/1e9)
	}
}

func TestPathMigrationOnOverSubscription(t *testing.T) {
	// Two-tier topology with 2 parallel paths. Three 4G-guarantee flows
	// cannot fit on one path (12G > 9.5G target): μFAB must spread them
	// so every flow gets ≥ ~4G.
	eng := sim.New()
	tt := topo.NewTwoTier(2, 3, topo.Gbps(10), sim.Microsecond)
	f := New(eng, tt.Graph, Config{Seed: 42})
	var flows []*Flow
	for i := 0; i < 3; i++ {
		vf := f.AddVF(int32(i+1), 4e9, 4)
		fl := f.AddFlow(vf, tt.HostsLeft[i], tt.HostsRight[i], 0)
		backlog(fl)
		flows = append(flows, fl)
	}
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(20 * sim.Millisecond)
	stop()
	f.SampleRates()
	paths := map[int]int{}
	for i, fl := range flows {
		rate := fl.Rate(15*sim.Millisecond, 20*sim.Millisecond)
		if rate < 3.5e9 {
			t.Errorf("flow %d rate = %.2f G, want ≥3.5 G after migration", i, rate/1e9)
		}
		paths[fl.Pair.ActivePathID()]++
	}
	// The three flows must not all sit on one path.
	for _, n := range paths {
		if n == 3 {
			t.Error("all flows on one path: no migration happened")
		}
	}
}

func TestFailureTriggersMigration(t *testing.T) {
	// Kill the agg on the active path: the flow must move to the other
	// path and recover (Fig 15a behavior).
	eng := sim.New()
	tt := topo.NewTwoTier(2, 1, topo.Gbps(10), sim.Microsecond)
	f := New(eng, tt.Graph, Config{Seed: 7})
	vf := f.AddVF(1, 2e9, 3)
	fl := f.AddFlow(vf, tt.HostsLeft[0], tt.HostsRight[0], 0)
	backlog(fl)
	eng.RunUntil(3 * sim.Millisecond)
	// Fail the agg currently carrying the flow.
	route := fl.Pair.ActivePath()
	aggNode := f.Graph.Link(route[1]).Dst
	f.Net.FailNode(aggNode)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(15 * sim.Millisecond)
	stop()
	f.SampleRates()
	if fl.Pair.Migrations == 0 {
		t.Fatal("no migration after failure")
	}
	rate := fl.Rate(12*sim.Millisecond, 15*sim.Millisecond)
	if rate < 5e9 {
		t.Errorf("post-failure rate = %.2f G, want recovery ≥5 G", rate/1e9)
	}
	// The new active path must avoid the failed node.
	for _, lid := range fl.Pair.ActivePath() {
		l := f.Graph.Link(lid)
		if l.Src == aggNode || l.Dst == aggNode {
			t.Error("active path still crosses failed node")
		}
	}
}

func TestProbeOverheadBounded(t *testing.T) {
	// One saturating flow: probe overhead must be ≤ L_p/(L_p+L_w) ≈
	// 2.6% with the default L_w = 4 KB (paper: 1.28% with their L_p).
	eng, f, st := starFabric(2, 8)
	vf := f.AddVF(1, 1e9, 3)
	fl := f.AddFlow(vf, st.Hosts[0], st.Hosts[1], 0)
	backlog(fl)
	eng.RunUntil(10 * sim.Millisecond)
	ovh := f.ProbeOverhead()
	if ovh <= 0 || ovh > 0.04 {
		t.Errorf("probe overhead = %.4f, want (0, 0.04]", ovh)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, uint64) {
		eng, f, st := starFabric(4, 99)
		for i := 0; i < 3; i++ {
			vf := f.AddVF(int32(i+1), 1e9, 2)
			fl := f.AddFlow(vf, st.Hosts[i], st.Hosts[3], 0)
			backlog(fl)
		}
		eng.RunUntil(2 * sim.Millisecond)
		var total int64
		for _, fl := range f.Flows {
			total += fl.Pair.Delivered
		}
		return total, eng.Processed
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", d1, e1, d2, e2)
	}
}

func TestRTTBoundedUnderLoad(t *testing.T) {
	// With two-stage admission, per-packet RTT should stay within a few
	// baseRTTs even with 8 concurrent senders (bounded tail latency).
	eng, f, st := starFabric(9, 11)
	for i := 0; i < 8; i++ {
		vf := f.AddVF(int32(i+1), 500e6, 2)
		fl := f.AddFlow(vf, st.Hosts[i], st.Hosts[8], 0)
		fl.Pair.RTT = &stats.Samples{}
		backlog(fl)
	}
	eng.RunUntil(5 * sim.Millisecond)
	base := f.Graph.Diameter(1500).Micros()
	for i, fl := range f.Flows {
		if fl.Pair.RTT.Len() == 0 {
			t.Fatalf("flow %d has no RTT samples", i)
		}
		p99 := fl.Pair.RTT.P(0.99)
		if p99 > 12*base {
			t.Errorf("flow %d p99 RTT = %.1f μs (> 12×base %.1f μs)", i, p99, base)
		}
	}
}

func TestFailureNotificationFastRecovery(t *testing.T) {
	// The type-4 failure response (bounced by the switch that detects
	// the dead neighbor) triggers migration far faster than the probe
	// timeout (8 baseRTTs) would.
	eng := sim.New()
	tt := topo.NewTwoTier(2, 1, topo.Gbps(10), 5*sim.Microsecond)
	f := New(eng, tt.Graph, Config{Seed: 21})
	vf := f.AddVF(1, 2e9, 3)
	fl := f.AddFlow(vf, tt.HostsLeft[0], tt.HostsRight[0], 0)
	backlog(fl)
	eng.RunUntil(3 * sim.Millisecond)
	failAt := eng.Now()
	aggNode := f.Graph.Link(fl.Pair.ActivePath()[1]).Dst
	f.Net.FailNode(aggNode)
	// Step until the migration happens, recording when.
	var migratedAt sim.Time = -1
	for eng.Now() < failAt+2*sim.Millisecond {
		eng.RunUntil(eng.Now() + 10*sim.Microsecond)
		if fl.Pair.Migrations > 0 {
			migratedAt = eng.Now()
			break
		}
	}
	if migratedAt < 0 {
		t.Fatal("no migration within 2 ms of the failure")
	}
	baseRTT := f.Graph.BaseRTT(fl.Pair.ActivePath(), 1500)
	if migratedAt-failAt > 8*baseRTT {
		t.Errorf("migration took %v after failure, want well under the 8-RTT timeout (%v)",
			migratedAt-failAt, 8*baseRTT)
	}
}

// TestManagedPhiExcludedFromGP: a SetPhi pair keeps its token while its
// VF's other pairs share the rest.
func TestManagedPhiExcludedFromGP(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
	f := New(eng, st.Graph, Config{Seed: 7})
	vf := f.AddVF(1, 8e9, 5) // 80 tokens
	pinned := f.AddFlow(vf, st.Hosts[0], st.Hosts[1], 0)
	pinned.Pair.SetPhi(30)
	other := f.AddFlow(vf, st.Hosts[0], st.Hosts[2], 0)
	backlog(other)
	eng.RunUntil(2 * sim.Millisecond)
	if got := pinned.Pair.Phi(); got != 30 {
		t.Fatalf("managed φ = %v, want pinned 30", got)
	}
	// The free pair gets the remaining 50 (alone and backlogged).
	if got := other.Pair.Phi(); got < 45 {
		t.Fatalf("free pair φ = %v, want ≈50", got)
	}
}
