package dataplane

import (
	"reflect"
	"testing"
	"unsafe"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

// TestCopiedPacketDeliversItself: a caller-owned packet's arrivals name it
// by an id borrowed for its journey, so a value copy of an in-flight packet
// carries the original's id until it is sent. Injected on another route, the
// copy must borrow its own, reach its own destination with its own Hop, and
// so must the original — on a plain engine and on a partitioned one, where
// the two packets cross shard boundaries inline or on different workers.
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

// TestCallerOwnedResendAcrossShards: a caller-owned packet sent again after
// its delivery still holds the id it gave back, which another shard may be
// lending out or taking back at that moment. Two such packets ping-pong
// between hosts of different pods, each re-sent by its host a microsecond
// after it lands, on two workers: under -race this checks that a stale
// borrowed id is read only under the table's lock, and every round must
// still arrive.
func TestCallerOwnedResendAcrossShards(t *testing.T) {
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	part, err := topo.PartitionPods(ft.Graph)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]
	ab, ba := ft.Graph.Paths(a, b, 1)[0], ft.Graph.Paths(b, a, 1)[0]
	eng := sim.New()
	eng.Partition(part.Shards, 2, part.MinCutDelay)
	n := NewPartitioned(eng, part, ft.Graph, Config{})
	const rounds = 50
	var atA, atB int // each touched by its own host's shard only
	bounce := func(at topo.NodeID, got *int, back topo.Path) Handler {
		sched := n.NodeScheduler(at)
		return HandlerFunc(func(p *Packet) {
			if *got++; *got < rounds {
				sched.After(sim.Microsecond, func() { p.Route = back; n.Send(p) })
			}
		})
	}
	n.SetHandler(a, bounce(a, &atA, ab))
	n.SetHandler(b, bounce(b, &atB, ba))
	n.Send(&Packet{Kind: Data, Size: 1500, Route: ab})
	n.Send(&Packet{Kind: Data, Size: 1500, Route: ba})
	eng.Run()
	if atA != rounds || atB != rounds || n.TotalDrops != 0 {
		t.Errorf("%d and %d deliveries, %d drops; want %d at each host and none", atA, atB, n.TotalDrops, rounds)
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
// benchmark's dataplane.hop_allocs) costs the Packet alone — nothing per hop,
// and no binding: its journey borrows an id that the last one gave back —
// when the caller made it, and nothing at all when it came from the
// network's free list.
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
	if a := testing.AllocsPerRun(200, one); a > 1 {
		t.Errorf("%v allocations per 6-hop packet, want <= 1 (the Packet)", a)
	}
	if delivered != 202 {
		t.Errorf("delivered %d packets, want 202", delivered)
	}
	if n.LivePackets() != 0 || n.PooledPackets() != 0 {
		t.Errorf("caller-owned packets reached the pool: %d live, %d free", n.LivePackets(), n.PooledPackets())
	}
	if ids, spare := len(n.pkts.all), len(n.pkts.spare); ids != 2 || spare != 1 {
		t.Errorf("after 202 journeys the packet table holds %d ids, %d spare; want 2 (id 0 and one borrowed by turns), 1", ids, spare)
	}

	pooled := func() {
		pkt := n.NewPacket(ft.Hosts[0])
		pkt.Kind, pkt.Size, pkt.Route = Data, 1500, route
		n.Send(pkt)
		eng.Run()
	}
	pooled() // the one packet this loop ever makes
	if a := testing.AllocsPerRun(200, pooled); a != 0 {
		t.Errorf("%v allocations per pool-born 6-hop packet, want 0", a)
	}
	if delivered != 404 || n.LivePackets() != 0 || n.PooledPackets() != 1 {
		t.Errorf("delivered %d (want 404), %d live (want 0), %d free (want 1: every journey reused one packet)",
			delivered, n.LivePackets(), n.PooledPackets())
	}
}

// TestPacketBytes: every scheme's header rides in a typed field, none boxed
// behind an interface, the fields are ordered by alignment, and a hop's
// events carry the packet's id instead of a callback it holds, so a packet
// is 160 bytes (the 160-byte size class) and must not grow. A new field goes
// where the struct has padding — the two bytes after PathID, the four after
// id — or beside the fields of its own size.
func TestPacketBytes(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 160 {
		t.Errorf("Packet is %d bytes, want <= 160", got)
	}
}

// TestPoisonCoversEveryField: poisoning changes every exported field of a
// filled-in packet, so a stale read of any header — one added later
// included — shows in the ownership tests.
func TestPoisonCoversEveryField(t *testing.T) {
	var set func(f reflect.Value, name string)
	set = func(f reflect.Value, name string) {
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(3)
		case reflect.Float64:
			f.SetFloat(3)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			for j := range f.Len() {
				set(f.Index(j), name)
			}
		default:
			t.Fatalf("Packet.%s: no filler for a %s", name, f.Kind())
		}
	}
	fill := func() *Packet {
		pkt := &Packet{}
		v := reflect.ValueOf(pkt).Elem()
		for i := range v.NumField() {
			if field := v.Type().Field(i); field.IsExported() {
				set(v.Field(i), field.Name)
			}
		}
		return pkt
	}
	poisoned, want := fill(), fill()
	poisonPacket(poisoned)
	pv, wv := reflect.ValueOf(poisoned).Elem(), reflect.ValueOf(want).Elem()
	for i := range pv.NumField() {
		if field := pv.Type().Field(i); field.IsExported() && reflect.DeepEqual(pv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("poisoning leaves Packet.%s as it was: %v", field.Name, pv.Field(i))
		}
	}
}

// TestPacketOwnership walks one pool-born packet through everything its
// owner may do with it: delivered and taken back, turned around by the
// handler, turned around into a drop, and dropped at each site that drops —
// each time the network ends up holding exactly the packets it made. A
// caller-owned packet answered with Reply stays the caller's, untouched.
func TestPacketOwnership(t *testing.T) {
	eng, n, st := twoHostNet(topo.Gbps(10))
	a, b := st.Hosts[0], st.Hosts[1]
	out := st.Graph.Paths(a, b, 1)[0]
	back := st.Graph.ReversePath(out)
	n.PoisonReleased(true)
	var atA, atB []Kind
	n.SetHandler(a, HandlerFunc(func(p *Packet) { atA = append(atA, p.Kind) }))
	turnAround := true
	n.SetHandler(b, HandlerFunc(func(p *Packet) {
		atB = append(atB, p.Kind)
		if !turnAround {
			return
		}
		seq, payload := p.Seq, string(p.Payload)
		r := n.Reply(p, b)
		if r.Seq != 0 || r.ECN || string(r.Payload) != payload || r.VMPair != 9 || len(r.Route) != len(back) || r.Route[0] != back[0] {
			t.Errorf("Reply to seq %d: %+v", seq, r)
		}
		r.Kind, r.Size = Ack, 64
		n.Send(r)
	}))
	send := func(ret topo.Path) *Packet {
		p := n.NewPacket(a)
		p.Kind, p.Size, p.Seq, p.VMPair, p.Route, p.Return = Data, 1500, 7, 9, out, ret
		p.Payload = append(p.Payload, "int"...)
		n.Send(p)
		return p
	}
	check := func(step string, live int64, free int) {
		t.Helper()
		eng.Run()
		if n.LivePackets() != live || n.PooledPackets() != free {
			t.Fatalf("%s: %d live, %d free; want %d, %d", step, n.LivePackets(), n.PooledPackets(), live, free)
		}
	}

	// Turned around: one object makes both journeys, with the sender's
	// Return or with a computed one.
	first := send(back)
	check("data→ack", 0, 1)
	if again := send(nil); again != first {
		t.Fatal("the free list did not hand the retired packet out again")
	}
	check("data→ack, computed reverse", 0, 1)
	if len(atA) != 2 || atA[0] != Ack || len(atB) != 2 || atB[0] != Data {
		t.Fatalf("deliveries: a %v, b %v", atA, atB)
	}
	if first.Kind != 0xff || first.Route != nil || cap(first.Payload) < 3 {
		t.Fatalf("released packet not poisoned, or lost its buffer: %+v", first)
	}

	// Turned around into a dead link: released at the drop, not again when
	// the handler returns.
	n.FailLink(back[0])
	send(back)
	check("ack dropped at the fault filter", 0, 1)
	n.RecoverLink(back[0])

	// A caller-owned packet is answered with a pool-born one and keeps its
	// own fields.
	mine := &Packet{Kind: Data, Size: 1500, Seq: 7, VMPair: 9, Route: out, Payload: []byte("int")}
	n.Send(mine)
	check("reply to a caller-owned packet", 0, 1)
	if mine.Kind != Data || mine.Seq != 7 || string(mine.Payload) != "int" || len(mine.Route) != len(out) {
		t.Fatalf("Reply turned the caller's packet around: %+v", mine)
	}

	// Every drop site gives the packet back.
	turnAround = false
	n.FailNode(st.Center)
	send(nil)
	check("dropped entering a failed node", 0, 1)
	n.RecoverNode(st.Center)
	n.DegradeLink(out[1], Degradation{LossProb: 1})
	send(nil)
	check("dropped by a lossy link", 0, 1)
	n.RestoreLink(out[1])
	short := n.NewPacket(a)
	short.Kind, short.Size, short.Route = Data, 100, out[:1]
	n.Send(short)
	check("route exhausted at a switch", 0, 1)
	n.FailLink(out[1])
	lost := n.NewPacket(a)
	lost.Kind, lost.Size, lost.Dst = Data, 100, b
	n.SendECMP(lost, a)
	check("no ECMP next hop past the first link", 0, 1)
	n.RecoverLink(out[1])
	drops := n.TotalDrops
	send(nil)
	check("delivered, not answered", 0, 1)
	if n.TotalDrops != drops || len(atB) != 5 {
		t.Fatalf("drops %d → %d, %d deliveries at b (want 5)", drops, n.TotalDrops, len(atB))
	}

	// A full egress queue: the third of three back-to-back packets overflows.
	shallow := New(eng, st.Graph, Config{QueueCapBytes: 2000})
	for i := 0; i < 3; i++ {
		p := shallow.NewPacket(a)
		p.Kind, p.Size, p.Route = Data, 1500, out
		shallow.Send(p)
	}
	if shallow.Port(out[0]).Drops != 1 || shallow.LivePackets() != 2 || shallow.PooledPackets() != 1 {
		t.Fatalf("overflow: %d tail drops, %d live, %d free; want 1, 2, 1",
			shallow.Port(out[0]).Drops, shallow.LivePackets(), shallow.PooledPackets())
	}
	eng.Run()
	if shallow.LivePackets() != 0 || shallow.PooledPackets() != 3 {
		t.Fatalf("after the two deliveries: %d live, %d free", shallow.LivePackets(), shallow.PooledPackets())
	}

	// Sending a packet the network has taken back is a bug it reports.
	defer func() {
		if recover() == nil {
			t.Fatal("Send of a released packet did not panic")
		}
	}()
	first.Route = out
	n.Send(first)
}
