package dataplane

import (
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

// TestCopiedPacketDeliversItself: the arrival callback is bound to a Packet
// once per injection, so a value copy of an in-flight packet carries the
// original's binding until it is sent. Injected on another route, the copy
// must reach its own destination with its own Hop, and so must the
// original — on a plain engine and on a partitioned one, where the two
// packets cross shard boundaries inline or on different workers.
func TestCopiedPacketDeliversItself(t *testing.T) {
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	part, err := topo.PartitionPods(ft.Graph)
	if err != nil {
		t.Fatal(err)
	}
	last := len(ft.Hosts) - 1
	far := ft.Graph.Paths(ft.Hosts[0], ft.Hosts[last], 1)[0]     // crosses the core
	other := ft.Graph.Paths(ft.Hosts[0], ft.Hosts[last-1], 1)[0] // another host of the far pod
	if len(far) != 6 || len(other) != 6 {
		t.Fatalf("routes have %d and %d links, want 6", len(far), len(other))
	}
	partitioned := func(workers int) func() (sim.Driver, *Network) {
		return func() (sim.Driver, *Network) {
			eng := sim.New()
			eng.Partition(part.Shards, workers, part.MinCutDelay)
			return eng, NewPartitioned(eng, part, ft.Graph, Config{})
		}
	}
	drivers := map[string]func() (sim.Driver, *Network){
		"plain": func() (sim.Driver, *Network) {
			eng := sim.New()
			return eng, New(eng, ft.Graph, Config{})
		},
		"partitioned, 0 workers": partitioned(0),
		"partitioned, 2 workers": partitioned(2),
	}
	for name, build := range drivers {
		drv, n := build()
		orig := &Packet{Kind: Data, Size: 1500, Route: far, Seq: 1}
		var cp Packet
		type delivery struct {
			pkt *Packet
			hop int
		}
		var atFar, atOther []delivery
		n.SetHandler(ft.Hosts[last], HandlerFunc(func(p *Packet) { atFar = append(atFar, delivery{p, p.Hop}) }))
		n.SetHandler(ft.Hosts[last-1], HandlerFunc(func(p *Packet) { atOther = append(atOther, delivery{p, p.Hop}) }))
		n.Send(orig)
		// Mid-flight (the original is three hops in), copy it and inject the
		// copy at the source again, towards the other host.
		drv.At(7*sim.Microsecond, func() {
			if orig.Hop == 0 || orig.Hop >= len(far)-1 {
				t.Errorf("%s: original at hop %d when copied, want mid-route", name, orig.Hop)
			}
			cp = *orig
			cp.Route, cp.Seq = other, 2
			n.Send(&cp)
		})
		drv.Run()
		if len(atFar) != 1 || atFar[0].pkt != orig || atFar[0].hop != len(far)-1 {
			t.Errorf("%s: far host got %+v, want the original at hop %d", name, atFar, len(far)-1)
		}
		if len(atOther) != 1 || atOther[0].pkt != &cp || atOther[0].hop != len(other)-1 {
			t.Errorf("%s: other host got %+v, want the copy at hop %d", name, atOther, len(other)-1)
		}
		if n.TotalDrops != 0 {
			t.Errorf("%s: %d drops", name, n.TotalDrops)
		}
	}
}

// TestEgressRingBoundedAndUnpinned: a port that always has a few packets
// waiting must reuse its ring instead of growing it, and a popped slot must
// not keep its packet reachable.
func TestEgressRingBoundedAndUnpinned(t *testing.T) {
	var p Port
	next := 0
	for i := 0; i < 3; i++ {
		p.push(&Packet{Seq: uint64(i)})
	}
	for i := 3; i < 1000; i++ {
		p.push(&Packet{Seq: uint64(i)})
		if got := p.pop(); got.Seq != uint64(next) {
			t.Fatalf("pop %d returned seq %d", next, got.Seq)
		}
		next++
	}
	if len(p.queue) != 4 {
		t.Fatalf("ring grew to %d slots with at most 4 packets waiting", len(p.queue))
	}
	live := 0
	for _, pkt := range p.queue {
		if pkt != nil {
			live++
		}
	}
	if live != p.qlen || p.qlen != 3 {
		t.Fatalf("ring holds %d packets for %d waiting (want 3)", live, p.qlen)
	}
	// Growing while wrapped keeps FIFO order.
	for i := 1000; i < 1010; i++ {
		p.push(&Packet{Seq: uint64(i)})
	}
	for p.qlen > 0 {
		if got := p.pop(); got.Seq != uint64(next) {
			t.Fatalf("after growth pop %d returned seq %d", next, got.Seq)
		}
		next++
	}
	if next != 1010 {
		t.Fatalf("popped %d packets, want 1010", next)
	}
}

// TestBackloggedPortKeepsFIFOAndAccounting drives the ring through the
// network: a burst deeper than the initial ring, delivered in order, with
// the queue accounting back at zero.
func TestBackloggedPortKeepsFIFOAndAccounting(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	var seqs []uint64
	n.SetHandler(st.Hosts[1], HandlerFunc(func(pkt *Packet) { seqs = append(seqs, pkt.Seq) }))
	const burst = 37
	for i := 0; i < burst; i++ {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route, Seq: uint64(i)})
	}
	port := n.Port(route[0])
	if port.QueueBytes() != (burst-1)*1500 || port.MaxQueueBytes != (burst-1)*1500 {
		t.Fatalf("queue %d B, high-water %d B", port.QueueBytes(), port.MaxQueueBytes)
	}
	eng.Run()
	if len(seqs) != burst {
		t.Fatalf("delivered %d of %d", len(seqs), burst)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("delivery %d has seq %d", i, s)
		}
	}
	if port.QueueBytes() != 0 || port.qlen != 0 || port.wire != nil {
		t.Fatalf("port not idle after drain: %d B, %d queued, wire %v", port.QueueBytes(), port.qlen, port.wire)
	}
}

// TestECMPNextMatchesCandidateList: the two-pass pick must choose the link
// the candidate-slice implementation chose, with a link down or not, without
// allocating.
func TestECMPNextMatchesCandidateList(t *testing.T) {
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	for _, mode := range []ECMPMode{Independent, Polarized} {
		n := New(sim.New(), ft.Graph, Config{ECMP: mode, HashSeed: 7})
		dst := ft.Hosts[len(ft.Hosts)-1]
		d := n.distTo(dst)
		check := func() {
			for at := range ft.Graph.Nodes {
				at := topo.NodeID(at)
				if at == dst {
					continue
				}
				for pair := VMPair(0); pair < 64; pair++ {
					pkt := &Packet{VMPair: pair, Dst: dst}
					var candidates []topo.LinkID
					for _, lid := range ft.Graph.Node(at).Out {
						to := ft.Graph.Link(lid).Dst
						if d[to] == d[at]-1 && !n.failed[to] && !n.faults[lid].down {
							candidates = append(candidates, lid)
						}
					}
					want := topo.NoLink
					if len(candidates) > 0 {
						h := ecmpHash(uint64(pair), n.Cfg.HashSeed)
						if mode == Independent {
							h = ecmpHash(h^uint64(at)*0x9e3779b97f4a7c15, n.Cfg.HashSeed)
						}
						want = candidates[h%uint64(len(candidates))]
					}
					if got := n.ecmpNext(at, pkt); got != want {
						t.Fatalf("mode %d node %d pair %d: link %d, want %d", mode, at, pair, got, want)
					}
				}
			}
		}
		check()
		n.FailLink(ft.Graph.Node(ft.Hosts[0]).Out[0] + 2) // some switch uplink
		up := ft.Graph.Node(ft.Graph.Link(ft.Graph.Node(ft.Hosts[0]).Out[0]).Dst).Out
		n.FailLink(up[len(up)-1])
		check()
		pkt := &Packet{VMPair: 5, Dst: dst}
		if a := testing.AllocsPerRun(100, func() { n.ecmpNext(ft.Hosts[0], pkt) }); a != 0 {
			t.Errorf("mode %d: ecmpNext allocates %v times per call", mode, a)
		}
	}
}

// TestHopAllocationBudget is the tier-1 gate on per-hop garbage: a 6-hop
// source-routed packet through the bare dataplane (the setup behind the
// benchmark's dataplane.hop_allocs) costs the Packet and its one arrival
// binding — nothing per hop.
func TestHopAllocationBudget(t *testing.T) {
	eng := sim.New()
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	n := New(eng, ft.Graph, Config{})
	dst := ft.Hosts[len(ft.Hosts)-1]
	delivered := 0
	n.SetHandler(dst, HandlerFunc(func(*Packet) { delivered++ }))
	route := ft.Graph.Paths(ft.Hosts[0], dst, 1)[0]
	if len(route) != 6 {
		t.Fatalf("route has %d links, want 6", len(route))
	}
	one := func() {
		n.Send(&Packet{Kind: Data, Size: 1500, Route: route})
		eng.Run()
	}
	one() // warm the engine's slab
	if a := testing.AllocsPerRun(200, one); a > 2 {
		t.Errorf("%v allocations per 6-hop packet, want <= 2 (the Packet and its arrival binding)", a)
	}
	if delivered != 202 {
		t.Errorf("delivered %d packets, want 202", delivered)
	}
}
