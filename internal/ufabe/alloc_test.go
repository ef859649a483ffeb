package ufabe

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
)

// sendRig is newRig reduced to the sender's data path: the destination
// swallows what it receives (no acks, no probe responses), timers are pushed
// out of reach, and the one pair is backlogged behind an open window — so
// the only thing that happens per packet is scheduleSend → trySend → the
// packet's trip.
func sendRig(t *testing.T, idleVFs int) (*rig, *Pair) {
	t.Helper()
	r := newRig(t, Config{TokenPeriod: -1, CandidateProbeInterval: -1, ProbeTimeoutRTTs: 1 << 20})
	r.net.SetHandler(r.st.Hosts[1], dataplane.HandlerFunc(func(*dataplane.Packet) {}))
	for i := 0; i < idleVFs; i++ {
		r.ten.Add(int32(1000+i), 1, 2)
	}
	p, buf := r.addPair(10)
	buf.Add(1 << 50)
	p.stage = stageSteady
	p.paths[p.active].window = 1 << 40
	r.eng.RunUntil(200 * sim.Microsecond) // past the bootstrap evaluation; RTO armed
	return r, p
}

// nextPacket runs the engine until the pair has put one more packet on the
// wire.
func (r *rig) nextPacket(p *Pair) {
	for sent := p.SentBytes; p.SentBytes == sent; {
		if !r.eng.Step() {
			panic("engine drained before the backlogged pair sent")
		}
	}
}

// TestSendAllocationBudget is the edge's share of the per-packet budget the
// dataplane hop gate holds: arming the send loop binds no closure, the packet
// comes off the network's free list with its arrival already bound, and the
// path index rides in a typed field — a data packet allocates nothing.
func TestSendAllocationBudget(t *testing.T) {
	r, p := sendRig(t, 0)
	r.eng.RunUntil(r.eng.Now() + sim.Millisecond) // deliveries have stocked the free list
	if a := testing.AllocsPerRun(500, func() { r.nextPacket(p) }); a != 0 {
		t.Errorf("%v allocations per data packet, want 0", a)
	}
}

// TestProbeRoundTripAllocationBudget: one probe round trip over a five-link
// path — encoded into a buffer the agent's last response gave back, stamped
// in place by μFAB-C on the source's uplink and on four switches, flipped
// into its response in that buffer at the far edge, decoded into the agent's
// scratch at the source, its loss check a recycled timer record — allocates
// nothing. Each probe rides the pooled packet that has just carried a data
// packet and its ack, which has no buffer of its own: the probe used to
// make one there.
func TestProbeRoundTripAllocationBudget(t *testing.T) {
	eng := sim.New()
	ch := topo.NewChain(4, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, ch.Graph, dataplane.Config{})
	for _, n := range append([]topo.NodeID{ch.Src}, ch.Switches...) {
		net.SetSwitchAgent(n, ufabc.New(ufabc.Config{}))
	}
	cfg := Config{TokenPeriod: -1, CandidateProbeInterval: -1}
	ten := &Tenancy{}
	src := New(eng, net, ch.Src, cfg, ten)
	New(eng, net, ch.Dst, cfg, ten)
	ten.Add(1, 10, 2)
	p := src.AddPair(PairConfig{ID: 1, VF: 1, Dst: ch.Dst, Routes: ch.Graph.Paths(ch.Src, ch.Dst, 0), Phi: 10, Demand: &Buffer{}})
	ps := p.paths[p.active]
	var acked, probed *dataplane.Packet
	net.Trace = func(at topo.NodeID, pkt *dataplane.Packet) {
		switch {
		case at == ch.Src && pkt.Kind == dataplane.Ack:
			acked = pkt
		case at == ch.Dst && pkt.Kind == dataplane.Probe:
			probed = pkt
		}
	}
	roundTrip := func() {
		// Data of a pair the source does not have: the far edge acks it, the
		// source ignores the ack, and the packet is back on the free list.
		d := net.NewPacket(ch.Src)
		d.Kind, d.VMPair, d.Tenant, d.Size = dataplane.Data, 2, 1, mtu
		d.Route, d.Return = ps.route, ps.back
		net.Send(d)
		eng.Run()
		src.sendProbe(p, p.active, probe.KindProbe)
		eng.Run() // through the response and the timeout check that finds it answered
	}
	roundTrip() // past the bootstrap probe; registers, scratch and free lists warm
	if a := testing.AllocsPerRun(200, roundTrip); a != 0 {
		t.Errorf("%v allocations per probe round trip, want 0", a)
	}
	if acked == nil || probed != acked {
		t.Errorf("the last probe did not ride the packet that had just carried data")
	}
	if resp := &src.resp; ps.respSeq != ps.probeSeq || ps.probeSeq < 202 || len(resp.Hops) != 5 || resp.Kind != probe.KindResponse {
		t.Errorf("after %d probes: answered up to %d, last response %+v", ps.probeSeq, ps.respSeq, *resp)
	}
}

// TestDrainToIdleAllocationBudget: a pair that wakes with a message, sends
// it, drains and goes idle — its reactivation probe, the data and the acks,
// the RTO check that finds nothing in flight, the idle check that sends the
// finish probe, both probes' loss checks, and the token ticks on both edges
// that see the pair come and go — allocates nothing once warm: each check is
// a timer record the agent armed before and gets back when it fires, the
// receiver keeps its pair record by value, and its token tick keeps the
// request slice of a VF that left for the next one to arrive.
func TestDrainToIdleAllocationBudget(t *testing.T) {
	r := newRig(t, Config{CandidateProbeInterval: -1})
	p, buf := r.addPair(10)
	const msg = 3 * mtu
	cycle := func() {
		buf.Add(msg)
		r.eng.RunUntil(r.eng.Now() + sim.Millisecond)
	}
	r.eng.RunUntil(sim.Millisecond) // the bootstrap probes
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("%v allocations per message that drains to idle, want 0", a)
	}
	ps := p.paths[p.active]
	if !p.Idle() || p.Delivered != 102*msg || ps.respSeq != ps.probeSeq || ps.probeSeq < 204 {
		t.Errorf("after 102 messages: idle %v, delivered %d, probes answered up to %d of %d",
			p.Idle(), p.Delivered, ps.respSeq, ps.probeSeq)
	}
}

// TestTokenUpdateAllocations: a token tick gathers into the agent's scratch
// and the law orders on its stack, so it allocates nothing for the
// pairs the host sources — and not one byte more for 1 024 tenants of the
// fabric that have no pair here.
func TestTokenUpdateAllocations(t *testing.T) {
	var allocs [2]float64
	for i, idle := range []int{0, 1024} {
		r, _ := sendRig(t, idle)
		r.src.cfg.TokenPeriod = 32 * sim.Microsecond // the tick itself stays off; we call it
		r.src.tokenUpdate()
		allocs[i] = testing.AllocsPerRun(200, r.src.tokenUpdate)
	}
	if allocs[1] > allocs[0] {
		t.Errorf("tokenUpdate allocates %v with 1024 other tenants in the fabric, %v with none", allocs[1], allocs[0])
	}
	if allocs[0] != 0 {
		t.Errorf("tokenUpdate allocates %v per tick for one backlogged pair, want 0", allocs[0])
	}
}

// TestPickIgnoresEmptyVFs: the per-packet pick and the token tick visit the
// VFs that have pairs on this host and no others, however many tenants the
// fabric has — an edge keeps no state for the rest. 1 024 tenants and one
// pair on this host leave one VF of sender state on the source, none on the
// destination, and one populated entry to visit. A tenant's departure takes
// the source's state with it.
func TestPickIgnoresEmptyVFs(t *testing.T) {
	r, p := sendRig(t, 1024)
	r.src.cfg.TokenPeriod = 32 * sim.Microsecond
	if got := len(r.ten.byID); got != 1025 {
		t.Fatalf("tenancy holds %d VFs, want 1025", got)
	}
	if len(r.src.vfs) != 1 || len(r.dst.vfs) != 0 {
		t.Fatalf("sender state for %d VFs on the source and %d on the destination, want 1 and 0", len(r.src.vfs), len(r.dst.vfs))
	}
	var populated int
	for c := range r.src.sched.classes {
		populated += len(r.src.sched.classes[c].populated)
	}
	if populated != 1 {
		t.Fatalf("%d populated VFs, want 1", populated)
	}
	for i := 0; i < 100; i++ {
		r.nextPacket(p)
		r.src.tokenUpdate()
	}
	if !r.ten.Remove(p.VF) || r.ten.Remove(p.VF) {
		t.Fatal("Remove of a registered VF, then again: want true, false")
	}
	if len(r.src.vfs) != 0 || r.src.Pair(p.ID) != nil || len(r.src.sched.classes[2].populated) != 0 {
		t.Fatalf("after Remove the source keeps %d VFs, pair %v", len(r.src.vfs), r.src.Pair(p.ID))
	}
	// An empty pick sweeps every class twice.
	if got := r.src.sched.nextPair(int64(r.eng.Now()), 1500); got != nil {
		t.Fatalf("picked a pair of a removed VF")
	}
}

// BenchmarkNextPair is one pick + charge on an edge that sources one
// backlogged pair, in a fabric of that tenant alone and of 1 024 more: the
// two must cost the same.
func BenchmarkNextPair(b *testing.B) {
	for _, idle := range []int{0, 1024} {
		b.Run(fmt.Sprintf("registered=%d", idle), func(b *testing.B) {
			var ten Tenancy
			for i := 0; i < idle; i++ {
				ten.Add(int32(1000+i), 1, 2)
			}
			ten.Add(1, 1, 2)
			w := newWFQ(&ten.roster)
			vf := &vfState{tenant: ten.byID[1]}
			p := schedPair()
			p.Demand.(*Buffer).Add(1 << 50)
			w.addPair(vf, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w.nextPair(0, 1500) != p {
					b.Fatal("backlogged pair not picked")
				}
				w.charge(p, 1500, 2)
			}
		})
	}
}

// TestNewAgentBytes: an agent is sized to its host, not to its generator —
// New on a host of the 1 024-host fabric1k Clos allocates under 3 KiB, of
// which the random stream (stats.NewRand) is a few dozen bytes rather than
// math/rand's 4.9 KB source.
func TestNewAgentBytes(t *testing.T) {
	cl := topo.NewClos(topo.ClosConfig{Pods: 8, ToRsPerPod: 8, AggsPerPod: 4, Cores: 16, HostsPerToR: 16,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
	eng := sim.New()
	net := dataplane.New(eng, cl.Graph, dataplane.Config{})
	ten := &Tenancy{agents: make([]*Agent, 0, len(cl.Hosts))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, h := range cl.Hosts {
		New(eng, net, h, Config{}, ten)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(cl.Hosts))
	if per >= 3<<10 {
		t.Errorf("New allocates %d B per fabric1k host, want < 3 KiB", per)
	} else {
		t.Logf("New allocates %d B per fabric1k host", per)
	}
}

// TestPathStateBytes: a candidate path keeps what the law reads of its last
// response — the allocation and when it arrived — and not the response
// itself, whose copy made a path 208 bytes plus its hop records.
func TestPathStateBytes(t *testing.T) {
	if got := unsafe.Sizeof(pathState{}); got > 136 {
		t.Errorf("pathState is %d bytes, want <= 136", got)
	}
}

// TestTimerBytes: a timer record — the agent, the pair, the bound fire func,
// one argument, the probe's sequence number and path, the kind — stays in
// the 48-byte size class; its fire func adds 16.
func TestTimerBytes(t *testing.T) {
	if got := unsafe.Sizeof(timer{}); got > 48 {
		t.Errorf("timer is %d bytes, want <= 48", got)
	}
}
