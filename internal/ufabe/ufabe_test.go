package ufabe

import (
	"math"
	"slices"
	"testing"

	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
)

// rig is a minimal two-host star with μFAB-C on the switch and μFAB-E on
// both hosts — enough to drive the full probe loop.
type rig struct {
	eng      *sim.Engine
	net      *dataplane.Network
	st       *topo.Star
	ten      *Tenancy
	src, dst *Agent
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), 5*sim.Microsecond)
	net := dataplane.New(eng, st.Graph, dataplane.Config{})
	net.SetSwitchAgent(st.Center, ufabc.New(ufabc.Config{}))
	for _, h := range st.Hosts {
		net.SetSwitchAgent(h, ufabc.New(ufabc.Config{}))
	}
	ten := &Tenancy{}
	src := New(eng, net, st.Hosts[0], cfg, ten)
	dst := New(eng, net, st.Hosts[1], cfg, ten)
	return &rig{eng: eng, net: net, st: st, ten: ten, src: src, dst: dst}
}

func (r *rig) addPair(phi float64) (*Pair, *Buffer) {
	buf := &Buffer{}
	routes := r.st.Graph.Paths(r.st.Hosts[0], r.st.Hosts[1], 0)
	r.ten.Add(1, phi, 2)
	p := r.src.AddPair(PairConfig{
		ID: 1, VF: 1, Dst: r.st.Hosts[1], Routes: routes, Phi: phi, Demand: buf,
	})
	return p, buf
}

func TestConfigDefaults(t *testing.T) {
	// The paper's fixed numbers are constants of the law, not fields.
	if BU != 100e6 || mtu != 1500 || ackSize != 64 || eta != 0.95 {
		t.Errorf("constants wrong: BU %v mtu %v ackSize %v eta %v", float64(BU), mtu, ackSize, eta)
	}
	if violationRTTs != 5 || idleFinishAfter != 200*sim.Microsecond {
		t.Errorf("migration/idle constants wrong: %v %v", violationRTTs, idleFinishAfter)
	}
	var c Config
	c.setDefaults()
	if c.ProbePayloadBytes != 4096 || c.FreezeMaxRTTs != 10 || c.probeTimeoutRTTs != 8 {
		t.Errorf("probe/migration defaults wrong: %+v", c)
	}
	if c.TokenPeriod != 32*sim.Microsecond {
		t.Errorf("token period default = %v", c.TokenPeriod)
	}
}

func TestNewPanicsOnSwitch(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, st.Graph, dataplane.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("New on switch did not panic")
		}
	}()
	New(eng, net, st.Center, Config{}, &Tenancy{})
}

func TestAddPairValidation(t *testing.T) {
	r := newRig(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("AddPair without routes did not panic")
		}
	}()
	r.src.AddPair(PairConfig{ID: 9, Demand: &Buffer{}})
}

func TestAddPairOfUnregisteredVFPanics(t *testing.T) {
	r := newRig(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("AddPair of an unregistered VF did not panic")
		}
	}()
	r.src.AddPair(PairConfig{ID: 9, VF: 4, Dst: r.st.Hosts[1],
		Routes: r.st.Graph.Paths(r.st.Hosts[0], r.st.Hosts[1], 0), Demand: &Buffer{}})
}

func TestPairAccessors(t *testing.T) {
	r := newRig(t, Config{})
	p, _ := r.addPair(10)
	if p.Phi() != 10 {
		t.Errorf("Phi = %v", p.Phi())
	}
	if p.Guarantee() != 1e9 {
		t.Errorf("Guarantee = %v", p.Guarantee())
	}
	if got := r.src.Pair(1); got != p {
		t.Error("Pair lookup failed")
	}
	if len(r.src.Pairs()) != 1 {
		t.Error("Pairs() wrong")
	}
	if p.ActivePathID() < 0 || len(p.ActivePath()) == 0 {
		t.Error("active path accessors wrong")
	}
}

func TestEffectivePhiUsesReceiverAdmission(t *testing.T) {
	r := newRig(t, Config{})
	p, _ := r.addPair(10)
	p.peerPhi = 4
	if p.effectivePhi() != 4 {
		t.Errorf("EffectivePhi = %v, want receiver-capped 4", p.effectivePhi())
	}
	p.peerPhi = 0 // unbound
	if p.effectivePhi() != 10 {
		t.Errorf("EffectivePhi = %v, want sender 10", p.effectivePhi())
	}
}

func TestProbeLoopDrivesWindow(t *testing.T) {
	r := newRig(t, Config{})
	p, buf := r.addPair(10)
	p.RTT = &stats.Samples{}
	buf.Add(1 << 30)
	r.eng.RunUntil(2 * sim.Millisecond)
	// Alone on a 10G path the pair must reach ≈ a BDP window.
	bdp := 0.95 * 10e9 * r.st.Graph.BaseRTT(p.ActivePath(), 1500).Seconds() / 8
	if w := float64(p.Window()); w < 0.5*bdp {
		t.Errorf("window = %v, want near BDP %v", w, bdp)
	}
	if p.Delivered == 0 {
		t.Error("no bytes delivered")
	}
	if p.RTT.Len() == 0 {
		t.Error("no RTT samples")
	}
}

// TestRTTRecordsOnlyWhenAttached: a pair keeps no RTT samples until a reader
// attaches them, and attaching changes nothing else. An attached pair records
// one sample per ack: the ack's network round trip in µs, as the network's
// trace sees the ack arrive, and the 824 samples of mean 22.3397 µs that
// every pair recorded before samples had to be attached.
func TestRTTRecordsOnlyWhenAttached(t *testing.T) {
	run := func(attach bool) (*Pair, []float64) {
		r := newRig(t, Config{})
		p, buf := r.addPair(10)
		if attach {
			p.RTT = &stats.Samples{}
		}
		var acks []float64
		r.net.Trace = func(at topo.NodeID, pkt *dataplane.Packet) {
			if at == r.src.host && pkt.Kind == dataplane.Ack {
				acks = append(acks, (r.eng.Now() - pkt.AckedSentAt).Micros())
			}
		}
		buf.Add(1 << 20)
		r.eng.RunUntil(sim.Millisecond)
		return p, acks
	}
	bare, bareAcks := run(false)
	p, acks := run(true)
	if bare.RTT != nil {
		t.Errorf("an unattached pair has RTT samples")
	}
	if bare.Delivered != p.Delivered || bare.SentBytes != p.SentBytes || len(bareAcks) != len(acks) {
		t.Errorf("attaching RTT samples changed the run: delivered %d / %d, sent %d / %d, acks %d / %d",
			bare.Delivered, p.Delivered, bare.SentBytes, p.SentBytes, len(bareAcks), len(acks))
	}
	if n, mean := p.RTT.Len(), p.RTT.Mean(); n != 824 || mean != 22.339650478155356 {
		t.Errorf("attached pair recorded %d samples of mean %v µs, want 824 of mean 22.339650478155356", n, mean)
	}
	if got := p.RTT.TakeAll(); !slices.Equal(got, acks) {
		t.Errorf("attached pair recorded %d samples that are not its %d acks' round trips", len(got), len(acks))
	}
}

func TestSelfClockedProbing(t *testing.T) {
	r := newRig(t, Config{})
	p, buf := r.addPair(10)
	buf.Add(1 << 30)
	r.eng.RunUntil(2 * sim.Millisecond)
	// Self-clocking cadence: one probe per max(RTT, L_w/rate) — the
	// probe loop is closed (next probe waits for the response), so at
	// high rate it is RTT-limited and the L_w rule is the worst-case
	// bound (§4.1).
	rtt := p.paths[p.active].baseRTT.Seconds()
	rate := float64(p.Delivered*8) / (2 * sim.Millisecond).Seconds()
	expected := (2 * sim.Millisecond).Seconds() / (rtt + 4096/(rate/8))
	got := float64(r.src.ProbesSentCount())
	if got < 0.4*expected || got > 2.5*expected {
		t.Errorf("probes sent = %.0f, want ≈%.0f (RTT-limited self-clocking)", got, expected)
	}
	// And never more often than one per L_w bytes (the overhead bound).
	if got > float64(p.SentBytes)/4096*1.2+5 {
		t.Errorf("probe overhead bound violated: %.0f probes for %d bytes", got, p.SentBytes)
	}
}

func TestIdleFinishAndReactivation(t *testing.T) {
	r := newRig(t, Config{})
	p, buf := r.addPair(10)
	buf.Add(200_000)
	r.eng.RunUntil(3 * sim.Millisecond) // drains, then idles
	if !p.idle {
		t.Fatal("pair did not go idle")
	}
	// The switch registers must have been cleaned by the finish probe.
	downlink := p.ActivePath()[len(p.ActivePath())-1]
	swAgent := r.net.G.Link(downlink).Src
	_ = swAgent
	// Reactivate: Scenario-2. kick must clear the idle flag at once.
	buf.Add(500_000)
	if p.idle {
		t.Fatal("Kick did not reactivate the pair")
	}
	r.eng.RunUntil(6 * sim.Millisecond)
	if p.Delivered != 700_000 {
		t.Fatalf("Delivered = %d, want all 700000", p.Delivered)
	}
	if !p.idle {
		t.Fatal("pair should have re-idled after draining")
	}
}

func TestRemovePair(t *testing.T) {
	r := newRig(t, Config{})
	p, _ := r.addPair(10)
	r.src.removePair(p.ID)
	if r.src.Pair(p.ID) != nil {
		t.Fatal("pair still present")
	}
	r.src.removePair(p.ID) // idempotent
	r.eng.RunUntil(sim.Millisecond)
}

func TestComputeFromResponseEquations(t *testing.T) {
	T := 22 * sim.Microsecond
	hops := []probe.Hop{{
		TotalWindow: 40000,
		TotalTokens: 40,  // Φ = 40
		TxRate:      8e9, // below target
		Queue:       0,
		Capacity:    10e9,
	}}
	al := allocate(10, mtu, T, hops) // φ = 10 tokens = 1G
	// Eqn 1: r = (10/40)·0.95·10G = 2.375G.
	if math.Abs(al.share-2.375e9) > 1e6 {
		t.Errorf("share = %v, want 2.375e9", al.share)
	}
	// Eqn 3: w = (10/40)·W·(C̄T/8)/(txT/8) capped at BDP.
	bdp := 0.95 * 10e9 * T.Seconds() / 8
	want := 0.25 * 40000 * bdp / (8e9 * T.Seconds() / 8)
	if want > bdp {
		want = bdp
	}
	if math.Abs(float64(al.window)-want) > 0.05*want {
		t.Errorf("window = %d, want ≈%f", al.window, want)
	}
	if !al.qualified {
		t.Error("40 tokens on a 95-token link must be qualified")
	}
	// The pair's own window stands in for a W_l that has not caught up.
	if al2 := allocate(10, 80000, T, hops); al2.window <= al.window {
		t.Errorf("window %d with 80000 bytes in the pair's own window, want above %d", al2.window, al.window)
	}
	// Oversubscribed: Φ·BU > C̄.
	hops[0].TotalTokens = 120
	al = allocate(10, mtu, T, hops)
	if al.qualified {
		t.Error("120 tokens on a 95-token link must be unqualified")
	}
	if al.subscription < 1.2 {
		t.Errorf("subscription = %v, want ≥1.2", al.subscription)
	}
	// The bottleneck hop decides share and window; the worst hop decides
	// qualification.
	hops = append(hops, probe.Hop{TotalTokens: 20, Capacity: 10e9})
	if al = allocate(10, mtu, T, hops); math.Abs(al.share-10.0/120*9.5e9) > 1e6 || al.qualified {
		t.Errorf("two hops: share %v qualified %v, want the 120-token hop's", al.share, al.qualified)
	}
}

func TestComputeFromResponseIdleLink(t *testing.T) {
	T := 22 * sim.Microsecond
	al := allocate(10, mtu, T, []probe.Hop{{TotalTokens: 10, TxRate: 0, Queue: 0, Capacity: 10e9}})
	// Idle link: the window jumps to the full BDP (§3.4: "any VM pair
	// with a single token can use the full capacity").
	bdp := int64(0.95 * 10e9 * T.Seconds() / 8)
	if al.window < bdp*9/10 {
		t.Errorf("idle-link window = %d, want ≈BDP %d", al.window, bdp)
	}
	// No hop records at all (a response that lost them): one MTU, no share
	// bound, nothing to disqualify.
	if al = allocate(10, mtu, T, nil); al.window != mtu || !al.qualified || !math.IsInf(al.share, 1) {
		t.Errorf("empty response: %+v", al)
	}
	// Applying a response stores the allocation on the path.
	r := newRig(t, Config{})
	p, _ := r.addPair(10)
	ps := p.paths[p.active]
	resp := &probe.Packet{Kind: probe.KindResponse, Phi: 10, Hops: []probe.Hop{{TotalTokens: 10, Capacity: 10e9}}}
	want := allocate(10, p.Window(), ps.baseRTT, resp.Hops)
	p.applyResponse(ps, resp)
	if !ps.responded || ps.allocation != want {
		t.Errorf("applyResponse stored %+v of %+v, want %+v", ps.allocation, resp, want)
	}
	// What the path keeps is its own: the agent decodes the next response
	// over the one it was handed.
	resp.Hops[0].TotalTokens, resp.Seq = 99, 5
	if ps.allocation != want {
		t.Errorf("the stored allocation follows the decode scratch: %+v, want %+v", ps.allocation, want)
	}
}

func TestTwoStageAdmissionRamp(t *testing.T) {
	r := newRig(t, Config{})
	p, _ := r.addPair(10)
	p.enterRamp(0, false)
	if p.stage != stageRamp {
		t.Fatal("not in ramp")
	}
	// Bootstrap = φ·BU·T (≥ MTU floor).
	T := p.paths[p.active].baseRTT
	want := 10 * 100e6 * T.Seconds() / 8
	if want < 1500 {
		want = 1500
	}
	if math.Abs(p.rampWindow-want) > 1 {
		t.Errorf("bootstrap = %v, want %v", p.rampWindow, want)
	}
	// Additive increase needs a response to know the share.
	ps := p.paths[p.active]
	ps.responded = true
	ps.share = 2e9
	ps.window = 1 << 20 // keep eqn-3 above the ramp
	before := p.rampWindow
	p.advanceRamp(T)
	inc := p.rampWindow - before
	want = 2e9 * T.Seconds() / 8 // r·T per RTT
	if math.Abs(inc-want) > 0.05*want {
		t.Errorf("ramp increment = %v, want %v", inc, want)
	}
	// Crossing the eqn-3 window flips to steady.
	ps.window = int64(p.rampWindow) - 1
	p.advanceRamp(2 * T)
	if p.stage != stageSteady {
		t.Error("did not switch to steady after crossing")
	}
}

func TestUFABPrimeSkipsRamp(t *testing.T) {
	r := newRig(t, Config{DisableTwoStage: true})
	p, _ := r.addPair(10)
	if p.stage != stageSteady {
		t.Fatal("uFAB' must not ramp")
	}
	// Initial window is a full path BDP (the greedy burst).
	bdp := int64(10e9 * p.paths[p.active].baseRTT.Seconds() / 8)
	if w := p.Window(); w < bdp*9/10 {
		t.Errorf("uFAB' initial window = %d, want ≈%d", w, bdp)
	}
}

func TestPeriodicProbingMode(t *testing.T) {
	r := newRig(t, Config{PeriodicProbeRTTs: 3})
	p, buf := r.addPair(10)
	buf.Add(1 << 30)
	r.eng.RunUntil(2 * sim.Millisecond)
	// Probes every ~3 RTTs instead of every L_w bytes: far fewer than
	// self-clocking would send at 9.5G.
	rtts := float64(2*sim.Millisecond) / float64(p.paths[p.active].baseRTT)
	maxExpected := rtts/3*2 + 10
	if float64(r.src.ProbesSentCount()) > maxExpected {
		t.Errorf("periodic probing sent %d probes, want ≤ %.0f", r.src.ProbesSentCount(), maxExpected)
	}
}

func TestWFQClassWeights(t *testing.T) {
	var ten Tenancy
	ten.Add(1, 1, 7)
	ten.Add(2, 1, 0)
	w := newWFQ(&ten.roster)
	hi := &vfState{tenant: ten.byID[1]}
	lo := &vfState{tenant: ten.byID[2]}
	// Two always-eligible pairs.
	mkPair := func(vf *vfState) *Pair {
		b := &Buffer{}
		b.Add(1 << 30)
		p := &Pair{Demand: b}
		ps := &pathState{allocation: allocation{window: 1 << 20}}
		p.paths = []*pathState{ps}
		p.stage = stageSteady
		w.addPair(vf, p)
		return p
	}
	ph := mkPair(hi)
	pl := mkPair(lo)
	served := map[*Pair]int{}
	for i := 0; i < 1000; i++ {
		p := w.nextPair(0, 1500)
		if p == nil {
			t.Fatal("no eligible pair")
		}
		served[p]++
		var cls int
		if p == ph {
			cls = 7
		}
		w.charge(p, 1500, cls)
	}
	ratio := float64(served[ph]) / float64(served[pl])
	// Class 7 weight 128 vs class 0 weight 1.
	if ratio < 30 {
		t.Errorf("WFQ ratio = %.1f, want heavily weighted toward class 7", ratio)
	}
}

func TestWFQClassClamping(t *testing.T) {
	var ten Tenancy
	ten.Add(1, 1, 99)
	if c := ten.byID[1].class; c != NumWeightClasses-1 {
		t.Errorf("class clamped to %d", c)
	}
	ten.Add(2, 1, -3)
	if c := ten.byID[2].class; c != 0 {
		t.Errorf("negative class clamped to %d", c)
	}
	if ten.Add(2, 5, 3) || ten.byID[2].hose != 1 || len(ten.roster[3]) != 0 {
		t.Errorf("a duplicate Add changed the table: %+v", *ten.byID[2])
	}
}

func TestReorderFreeDelaysData(t *testing.T) {
	// With reorderFree, dataStartAt is pushed one baseRTT after a
	// migration; verify via the eligibility gate.
	r := newRig(t, Config{reorderFree: true})
	p, buf := r.addPair(10)
	buf.Add(1 << 20)
	p.dataStartAt = r.eng.Now() + 100*sim.Microsecond
	if eligible(p, int64(r.eng.Now())) {
		t.Fatal("pair eligible before dataStartAt")
	}
	if !eligible(p, int64(r.eng.Now()+101*sim.Microsecond)) {
		t.Fatal("pair not eligible after dataStartAt")
	}
}

func TestGuaranteePartitioningLoop(t *testing.T) {
	// Two pairs of one VF: when one has insufficient demand, the other's
	// token grows toward the full hose within a token period.
	eng := sim.New()
	st := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
	net := dataplane.New(eng, st.Graph, dataplane.Config{})
	net.SetSwitchAgent(st.Center, ufabc.New(ufabc.Config{}))
	ten := &Tenancy{}
	src := New(eng, net, st.Hosts[0], Config{}, ten)
	New(eng, net, st.Hosts[1], Config{}, ten)
	New(eng, net, st.Hosts[2], Config{}, ten)
	ten.Add(1, 40, 3) // 4G hose
	busy := &Buffer{}
	idle := &Buffer{}
	p1 := src.AddPair(PairConfig{ID: 1, VF: 1, Dst: st.Hosts[1],
		Routes: st.Graph.Paths(st.Hosts[0], st.Hosts[1], 0), Phi: 20, Demand: busy})
	p2 := src.AddPair(PairConfig{ID: 2, VF: 1, Dst: st.Hosts[2],
		Routes: st.Graph.Paths(st.Hosts[0], st.Hosts[2], 0), Phi: 20, Demand: idle})
	busy.Add(1 << 30)
	eng.RunUntil(500 * sim.Microsecond)
	if p1.Phi() < 30 {
		t.Errorf("busy pair φ = %v, want most of the 40-token hose", p1.Phi())
	}
	if p2.Phi() > 25 {
		t.Errorf("idle pair φ = %v, want ≈ the boosted equal share", p2.Phi())
	}
}
