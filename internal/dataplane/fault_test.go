package dataplane

import (
	"bytes"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

func TestFaultAPIBoundsChecked(t *testing.T) {
	_, n, st := twoHostNet(topo.Gbps(10))
	badLinks := []topo.LinkID{-1, topo.LinkID(len(st.Graph.Links))}
	for _, l := range badLinks {
		if n.FailLink(l) || n.RecoverLink(l) || n.RestoreLink(l) ||
			n.DegradeLink(l, Degradation{LossProb: 1}) {
			t.Errorf("link %d accepted out of range", l)
		}
		if n.LinkFailed(l) || n.LinkDegraded(l) {
			t.Errorf("link %d reported fault state out of range", l)
		}
	}
	badNodes := []topo.NodeID{-1, topo.NodeID(len(st.Graph.Nodes))}
	for _, id := range badNodes {
		if n.FailNode(id) || n.RecoverNode(id) || n.Failed(id) {
			t.Errorf("node %d accepted out of range", id)
		}
	}
	if !n.FailLink(0) || !n.LinkFailed(0) || !n.RecoverLink(0) {
		t.Error("valid link id rejected")
	}
	if !n.FailNode(0) || !n.Failed(0) || !n.RecoverNode(0) {
		t.Error("valid node id rejected")
	}
}

func TestOnFailDropReportsFailedNode(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var ats, faileds []topo.NodeID
	n.OnFailDrop = func(pkt *Packet, at, failed topo.NodeID) {
		ats = append(ats, at)
		faileds = append(faileds, failed)
	}
	// Dead next hop: the live source reports its failed neighbor.
	n.FailNode(st.Center)
	n.Send(&Packet{Kind: Data, Size: 100, Route: route})
	eng.Run()
	// Dead source: the drop happens at the failed node itself.
	n.RecoverNode(st.Center)
	n.FailNode(st.Hosts[0])
	n.Send(&Packet{Kind: Data, Size: 100, Route: route})
	eng.Run()
	if len(faileds) != 2 {
		t.Fatalf("OnFailDrop fired %d times, want 2", len(faileds))
	}
	if ats[0] != st.Hosts[0] || faileds[0] != st.Center {
		t.Errorf("dead next hop reported at=%d failed=%d, want at=%d failed=%d",
			ats[0], faileds[0], st.Hosts[0], st.Center)
	}
	if ats[1] != st.Hosts[0] || faileds[1] != st.Hosts[0] {
		t.Errorf("dead source reported at=%d failed=%d, want both %d",
			ats[1], faileds[1], st.Hosts[0])
	}
}

func TestFailLinkBlackholes(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	delivered := 0
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { delivered++ }))
	var at, failed topo.NodeID
	n.OnFailDrop = func(pkt *Packet, a, f topo.NodeID) { at, failed = a, f }
	n.FailLink(route[0])
	n.Send(&Packet{Kind: Data, Size: 100, Route: route})
	eng.Run()
	if delivered != 0 {
		t.Fatal("packet crossed a downed link")
	}
	if n.FaultDrops != 1 || n.TotalDrops != 1 || n.Port(route[0]).FaultDrops != 1 {
		t.Errorf("drop counters: net=%d total=%d port=%d, want 1 each",
			n.FaultDrops, n.TotalDrops, n.Port(route[0]).FaultDrops)
	}
	// The near end detects the dark link; the far end is "failed".
	if at != st.Hosts[0] || failed != st.Center {
		t.Errorf("reported at=%d failed=%d, want %d/%d", at, failed, st.Hosts[0], st.Center)
	}
	n.RecoverLink(route[0])
	n.Send(&Packet{Kind: Data, Size: 100, Route: route})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d after recovery, want 1", delivered)
	}
}

func TestECMPAvoidsDownedLink(t *testing.T) {
	eng := sim.New()
	tt := topo.NewTwoTier(2, 1, topo.Gbps(10), sim.Microsecond)
	n := New(eng, tt.Graph, Config{ECMP: Independent})
	var down topo.LinkID = topo.NoLink
	for _, lid := range tt.Graph.Node(tt.ToR1).Out {
		if tt.Graph.Link(lid).Dst == tt.Aggs[0] {
			down = lid
		}
	}
	if down == topo.NoLink {
		t.Fatal("no ToR1→Agg0 uplink found")
	}
	delivered := 0
	n.SetHandler(tt.HostsRight[0], HandlerFunc(func(pkt *Packet) { delivered++ }))
	n.FailLink(down)
	for vm := 0; vm < 100; vm++ {
		n.SendECMP(&Packet{Kind: Data, Size: 100, VMPair: VMPair(vm), Dst: tt.HostsRight[0]}, tt.HostsLeft[0])
	}
	eng.Run()
	if delivered != 100 {
		t.Fatalf("delivered %d/100 with one of two uplinks down", delivered)
	}
	if tx := n.Port(down).TxPackets; tx != 0 {
		t.Fatalf("downed uplink carried %d packets", tx)
	}
	// After recovery the hash spreads over both uplinks again.
	n.RecoverLink(down)
	for vm := 0; vm < 100; vm++ {
		n.SendECMP(&Packet{Kind: Data, Size: 100, VMPair: VMPair(vm), Dst: tt.HostsRight[0]}, tt.HostsLeft[0])
	}
	eng.Run()
	if tx := n.Port(down).TxPackets; tx == 0 {
		t.Error("recovered uplink never used")
	}
}

func TestDegradedCapacityAndExtraDelay(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	n.DegradeLink(route[0], Degradation{CapacityScale: 0.5, ExtraDelay: 5 * sim.Microsecond})
	if !n.LinkDegraded(route[0]) {
		t.Fatal("degradation not recorded")
	}
	var gotAt sim.Time
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { gotAt = eng.Now() }))
	n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	eng.Run()
	// Hop 1 at half rate plus the added latency, hop 2 untouched:
	// 2.4 μs ser + (1 + 5) μs prop, then 1.2 μs ser + 1 μs prop.
	want := 2400*sim.Nanosecond + 6*sim.Microsecond + 1200*sim.Nanosecond + sim.Microsecond
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	// Restore returns the link to full speed.
	n.RestoreLink(route[0])
	if n.LinkDegraded(route[0]) {
		t.Fatal("degradation survived RestoreLink")
	}
	start := eng.Now()
	n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	eng.Run()
	if lat := gotAt - start; lat != 2*(1200*sim.Nanosecond+sim.Microsecond) {
		t.Fatalf("post-restore latency %v, want 4.4 μs", lat)
	}
}

// TestDegradeRefusesUnschedulable: a gray fault whose added latency
// would schedule an arrival before its departure, or overflow the link's
// propagation delay, or whose line rate is so low that a packet's
// serialization overflows, is refused and leaves the link as it was.
func TestDegradeRefusesUnschedulable(t *testing.T) {
	_, n, _ := twoHostNet(topo.Gbps(10))
	for _, d := range []sim.Duration{-1, -sim.Second, maxExtraDelay + 1, 9223372036854775000} {
		if n.DegradeLink(0, Degradation{ExtraDelay: d, LossProb: 0.5}) || n.LinkDegraded(0) {
			t.Errorf("ExtraDelay %d accepted", d)
		}
	}
	for _, s := range []float64{1e-300, 5e-324, minCapacityScale / 2} {
		if n.DegradeLink(0, Degradation{CapacityScale: s}) || n.LinkDegraded(0) {
			t.Errorf("CapacityScale %g accepted", s)
		}
	}
	if !n.DegradeLink(0, Degradation{ExtraDelay: maxExtraDelay, CapacityScale: minCapacityScale}) || !n.LinkDegraded(0) {
		t.Error("a degradation at the bounds refused")
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		eng := sim.New()
		st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
		n := New(eng, st.Graph, Config{faultSeed: seed})
		route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
		n.DegradeLink(route[0], Degradation{LossProb: 0.3})
		got := make([]bool, 200)
		n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { got[pkt.Seq] = true }))
		for i := 0; i < 200; i++ {
			n.Send(&Packet{Kind: Data, Size: 100, Seq: uint64(i), Route: route})
			eng.Run()
		}
		delivered := 0
		for _, ok := range got {
			if ok {
				delivered++
			}
		}
		if delivered == 0 || delivered == 200 {
			t.Fatalf("seed %d: delivered %d/200 at 30%% loss", seed, delivered)
		}
		if int(n.FaultDrops) != 200-delivered {
			t.Fatalf("seed %d: FaultDrops %d vs %d lost", seed, n.FaultDrops, 200-delivered)
		}
		return got
	}
	a, b := run(1), run(1)
	if !equalBools(a, b) {
		t.Fatal("same seed produced different loss patterns")
	}
	if equalBools(a, run(2)) {
		t.Fatal("different seeds produced identical loss patterns")
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProbeDropStarvesControlOnly(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	n.DegradeLink(route[0], Degradation{ProbeDropProb: 1})
	var kinds []Kind
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { kinds = append(kinds, pkt.Kind) }))
	n.Send(&Packet{Kind: Probe, Size: 64, Route: route, Payload: []byte{1, 2, 3}})
	n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	n.Send(&Packet{Kind: Response, Size: 64, Route: route, Payload: []byte{4, 5, 6}})
	eng.Run()
	if len(kinds) != 1 || kinds[0] != Data {
		t.Fatalf("delivered kinds %v, want only data", kinds)
	}
	if n.FaultDrops != 2 {
		t.Fatalf("FaultDrops = %d, want the 2 control packets", n.FaultDrops)
	}
}

func TestProbeCorruptionFlipsCopy(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, st.Graph, Config{faultSeed: 3})
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	n.DegradeLink(route[0], Degradation{ProbeCorruptProb: 1})
	orig := []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}
	payload := append([]byte(nil), orig...)
	var got []byte
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { got = pkt.Payload }))
	n.Send(&Packet{Kind: Probe, Size: 64, Route: route, Payload: payload})
	eng.Run()
	if n.CorruptedProbes != 1 {
		t.Fatalf("CorruptedProbes = %d, want 1", n.CorruptedProbes)
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("corruption mutated the sender's buffer instead of a copy")
	}
	diffBits := 0
	for i := range got {
		for b := got[i] ^ orig[i]; b != 0; b &= b - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("payload differs in %d bits, want exactly 1 flipped", diffBits)
	}
	// Data payloads pass the corrupting link untouched.
	n.Send(&Packet{Kind: Data, Size: 100, Route: route, Payload: append([]byte(nil), orig...)})
	eng.Run()
	if !bytes.Equal(got, orig) || n.CorruptedProbes != 1 {
		t.Fatal("data payload corrupted")
	}
}

func TestFaultFreePathUnchanged(t *testing.T) {
	// With no faults configured the filter must be a no-op: identical
	// delivery time and untouched counters (the fault RNG is never
	// consulted, keeping fault-free runs bit-identical).
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var gotAt sim.Time
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { gotAt = eng.Now() }))
	n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	eng.Run()
	if want := 2 * (1200*sim.Nanosecond + sim.Microsecond); gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	if n.FaultDrops != 0 || n.CorruptedProbes != 0 {
		t.Fatal("fault counters moved on a clean network")
	}
}
