package dataplane

import (
	"testing"
	"testing/quick"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

func twoHostNet(capacity float64) (*sim.Engine, *Network, *topo.Star) {
	eng := sim.New()
	st := topo.NewStar(2, capacity, sim.Microsecond)
	n := New(eng, st.Graph, Config{})
	return eng, n, st
}

func TestDeliverySourceRouted(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var gotAt sim.Time
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) {
		gotAt = eng.Now()
		if pkt.Kind != Data || pkt.Size != 1500 {
			t.Errorf("delivered %+v", pkt)
		}
	}))
	n.Send(&Packet{Kind: Data, Size: 1500, Route: route, SentAt: 0})
	eng.Run()
	// Two hops: each 1.2 μs serialization + 1 μs prop = 4.4 μs.
	want := 2 * (1200*sim.Nanosecond + sim.Microsecond)
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
}

func TestQueueingDelay(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var deliveries []sim.Time
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) {
		deliveries = append(deliveries, eng.Now())
	}))
	// Send 3 back-to-back packets at t = 0: they serialize one after
	// another on the first link.
	for i := 0; i < 3; i++ {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	}
	eng.Run()
	if len(deliveries) != 3 {
		t.Fatalf("delivered %d", len(deliveries))
	}
	ser := 1200 * sim.Nanosecond
	for i := 1; i < 3; i++ {
		if gap := deliveries[i] - deliveries[i-1]; gap != ser {
			t.Errorf("gap %d = %v, want %v", i, gap, ser)
		}
	}
}

// Two senders into one receiver queue at the switch's downlink; the host
// uplinks queue too, and are not switch ports.
func TestSwitchQueueHighWaters(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(3, topo.Gbps(10), sim.Microsecond)
	n := New(eng, st.Graph, Config{})
	n.SetHandler(st.Hosts[2], HandlerFunc(func(*Packet) {}))
	for _, src := range st.Hosts[:2] {
		route := st.Graph.Paths(src, st.Hosts[2], 1)[0]
		for i := 0; i < 4; i++ {
			n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
		}
	}
	eng.Run()
	marks := n.SwitchQueueHighWaters()
	if len(marks) != 3 {
		t.Fatalf("%d switch ports, want the star's 3 downlinks", len(marks))
	}
	busy := 0
	for _, m := range marks {
		if m > 0 {
			busy++
			if down := n.Port(st.Graph.Link(st.Graph.Node(st.Hosts[2]).Out[0]).Reverse); m != down.MaxQueueBytes {
				t.Errorf("high-water %d, want the receiver downlink's %d", m, down.MaxQueueBytes)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("%d switch ports queued, want only the receiver's downlink (marks %v)", busy, marks)
	}
}

func TestTailDrop(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, st.Graph, Config{QueueCapBytes: 3000})
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	delivered := 0
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { delivered++ }))
	// 1 transmitting + 2 queued fit; the rest drop.
	for i := 0; i < 6; i++ {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	}
	eng.Run()
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	if n.TotalDrops != 3 {
		t.Fatalf("TotalDrops = %d, want 3", n.TotalDrops)
	}
	if n.Port(route[0]).Drops != 3 {
		t.Fatalf("port drops = %d", n.Port(route[0]).Drops)
	}
}

func TestECNMarking(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, st.Graph, Config{ECNThresholdBytes: 2000})
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var marks []bool
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { marks = append(marks, pkt.ECN) }))
	for i := 0; i < 4; i++ {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	}
	eng.Run()
	// First packet starts tx immediately (queue 0), second sees queue 0
	// (first already transmitting), third sees 1500 < 2000, fourth sees
	// 3000 ≥ 2000 → marked.
	want := []bool{false, false, false, true}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestECMPDelivery(t *testing.T) {
	eng := sim.New()
	tt := topo.NewTwoTier(3, 2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, tt.Graph, Config{})
	got := 0
	n.SetHandler(tt.HostsRight[0], HandlerFunc(func(pkt *Packet) { got++ }))
	for vm := 0; vm < 30; vm++ {
		pkt := &Packet{Kind: Data, Size: 100, VMPair: VMPair(vm), Dst: tt.HostsRight[0]}
		n.SendECMP(pkt, tt.HostsLeft[0])
		eng.Run()
	}
	if got != 30 {
		t.Fatalf("delivered %d/30", got)
	}
}

func TestECMPSpreadsAcrossPaths(t *testing.T) {
	eng := sim.New()
	tt := topo.NewTwoTier(4, 2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, tt.Graph, Config{ECMP: Independent})
	n.SetHandler(tt.HostsRight[0], HandlerFunc(func(pkt *Packet) {}))
	for vm := 0; vm < 400; vm++ {
		pkt := &Packet{Kind: Data, Size: 100, VMPair: VMPair(vm), Dst: tt.HostsRight[0]}
		n.SendECMP(pkt, tt.HostsLeft[0])
	}
	eng.Run()
	// Count packets per ToR1→Agg uplink.
	used := 0
	for _, agg := range tt.Aggs {
		for _, lid := range tt.Graph.Node(tt.ToR1).Out {
			if tt.Graph.Link(lid).Dst == agg && n.Port(lid).TxPackets > 0 {
				used++
			}
		}
	}
	if used != 4 {
		t.Fatalf("independent hash used %d/4 uplinks", used)
	}
}

func TestPolarizedHashConcentrates(t *testing.T) {
	// With the identical hash applied at ToR and Agg tiers, the Agg's
	// choice is correlated with the ToR's: across a 2-tier (ToR→Agg→
	// core-like) cascade the downstream stage uses fewer distinct links
	// than independent hashing. Here we verify the weaker, deterministic
	// property that polarized mode is insensitive to the switch ID: two
	// different switches with the same candidate count pick the same
	// index for the same flow.
	eng := sim.New()
	tt := topo.NewTwoTier(4, 2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, tt.Graph, Config{ECMP: Polarized})
	pkt := &Packet{VMPair: 7, Dst: tt.HostsRight[0]}
	l1 := n.ecmpNext(tt.ToR1, pkt)
	// Same flow from the other ToR (same 4 candidates, different switch).
	pkt2 := &Packet{VMPair: 7, Dst: tt.HostsLeft[0]}
	l2 := n.ecmpNext(tt.ToR2, pkt2)
	i1 := indexOf(tt.Graph, tt.ToR1, l1)
	i2 := indexOf(tt.Graph, tt.ToR2, l2)
	if i1 != i2 {
		t.Fatalf("polarized hash picked different indices %d vs %d", i1, i2)
	}
	// Independent mode should (for some flow) differ between switches.
	n2 := New(eng, tt.Graph, Config{ECMP: Independent})
	same := 0
	for vm := VMPair(0); vm < 64; vm++ {
		a := indexOf(tt.Graph, tt.ToR1, n2.ecmpNext(tt.ToR1, &Packet{VMPair: vm, Dst: tt.HostsRight[0]}))
		b := indexOf(tt.Graph, tt.ToR2, n2.ecmpNext(tt.ToR2, &Packet{VMPair: vm, Dst: tt.HostsLeft[0]}))
		if a == b {
			same++
		}
	}
	if same == 64 {
		t.Fatal("independent hash identical across switches for all flows")
	}
}

func indexOf(g *topo.Graph, node topo.NodeID, lid topo.LinkID) int {
	// Index among this node's upward (agg-facing) candidates.
	i := 0
	for _, out := range g.Node(node).Out {
		if g.Node(g.Link(out).Dst).Kind == topo.Switch {
			if out == lid {
				return i
			}
			i++
		}
	}
	return -1
}

func TestFailNodeDropsTraffic(t *testing.T) {
	eng := sim.New()
	tt := topo.NewTwoTier(2, 1, topo.Gbps(10), sim.Microsecond)
	n := New(eng, tt.Graph, Config{})
	paths := tt.Graph.Paths(tt.HostsLeft[0], tt.HostsRight[0], 0)
	delivered := 0
	n.SetHandler(tt.HostsRight[0], HandlerFunc(func(pkt *Packet) { delivered++ }))
	n.FailNode(tt.Aggs[0])
	for _, p := range paths {
		n.Send(&Packet{Kind: Data, Size: 100, Route: p})
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (only the non-failed agg path)", delivered)
	}
	n.RecoverNode(tt.Aggs[0])
	if n.Failed(tt.Aggs[0]) {
		t.Fatal("RecoverNode did not clear failure")
	}
	for _, p := range paths {
		n.Send(&Packet{Kind: Data, Size: 100, Route: p})
	}
	eng.Run()
	if delivered != 3 {
		t.Fatalf("after recovery delivered = %d, want 3", delivered)
	}
}

func TestSwitchAgentHook(t *testing.T) {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	n := New(eng, st.Graph, Config{})
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	calls := 0
	n.SetSwitchAgent(st.Center, agentFunc(func(pkt *Packet, out *Port, now sim.Time) {
		calls++
		if out.Link.ID != route[1] {
			t.Errorf("agent saw egress %d, want %d", out.Link.ID, route[1])
		}
	}))
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) {}))
	n.Send(&Packet{Kind: Data, Size: 100, Route: route})
	eng.Run()
	if calls != 1 {
		t.Fatalf("agent calls = %d, want 1", calls)
	}
}

type agentFunc func(pkt *Packet, out *Port, now sim.Time)

func (f agentFunc) OnForward(pkt *Packet, out *Port, now sim.Time) { f(pkt, out, now) }

func TestTxRateEstimator(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) {}))
	// Saturate the 10G link for 200 μs with 1500B packets.
	var send func()
	sent := 0
	send = func() {
		if eng.Now() > 200*sim.Microsecond {
			return
		}
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
		sent++
		eng.After(1200*sim.Nanosecond, send)
	}
	eng.At(0, send)
	eng.Run()
	rate := n.Port(route[0]).TxRate(200 * sim.Microsecond)
	if rate < 0.9*topo.Gbps(10) || rate > 1.05*topo.Gbps(10) {
		t.Fatalf("TxRate = %v, want ≈10G", rate)
	}
	// After a long idle period the estimate decays to 0.
	rate = n.Port(route[0]).TxRate(10 * sim.Millisecond)
	if rate != 0 {
		t.Fatalf("idle TxRate = %v, want 0", rate)
	}
}

func TestLinkUtilization(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) {}))
	for i := 0; i < 10; i++ {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
	}
	end := eng.Run()
	u := n.LinkUtilization(route[0], end)
	if u <= 0 || u > 1.01 {
		t.Fatalf("utilization = %v", u)
	}
	if n.LinkUtilization(route[0], 0) != 0 {
		t.Fatal("utilization at t=0 not 0")
	}
}

func TestSendWithoutRoutePanics(t *testing.T) {
	_, n, _ := twoHostNet(topo.Gbps(10))
	defer func() {
		if recover() == nil {
			t.Fatal("Send without route did not panic")
		}
	}()
	n.Send(&Packet{Kind: Data, Size: 100})
}

func TestSetHandlerOnSwitchPanics(t *testing.T) {
	_, n, st := twoHostNet(topo.Gbps(10))
	defer func() {
		if recover() == nil {
			t.Fatal("SetHandler on switch did not panic")
		}
	}()
	n.SetHandler(st.Center, HandlerFunc(func(pkt *Packet) {}))
}

func TestSwitchAgentOnHostUplink(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	seen := 0
	n.SetSwitchAgent(st.Hosts[0], agentFunc(func(pkt *Packet, out *Port, now sim.Time) { seen++ }))
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) {}))
	n.Send(&Packet{Kind: Data, Size: 100, Route: route})
	eng.Run()
	if seen != 1 {
		t.Fatalf("host-attached agent saw %d packets, want 1", seen)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Data: "data", Ack: "ack", Probe: "probe", Response: "response", Kind(9): "kind(9)"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// Property: conservation — over a star with generous buffers, every packet
// sent is delivered exactly once, in per-path FIFO order.
func TestConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 200 {
			return true
		}
		eng, n, st := twoHostNet(topo.Gbps(10))
		route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
		var got []uint64
		n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { got = append(got, pkt.Seq) }))
		for i, s := range sizes {
			n.Send(&Packet{Kind: Data, Size: int(s%1400) + 64, Seq: uint64(i), Route: route})
		}
		eng.Run()
		if len(got) != len(sizes) {
			return false
		}
		for i := range got {
			if got[i] != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForwarding(b *testing.B) {
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	n := New(eng, tb.Graph, Config{})
	route := tb.Graph.Paths(tb.Servers[0], tb.Servers[4], 1)[0]
	n.SetHandler(tb.Servers[4], HandlerFunc(func(pkt *Packet) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
		eng.Run()
	}
}
