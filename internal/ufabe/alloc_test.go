package ufabe

import (
	"fmt"
	"testing"

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
		r.src.AddVF(int32(1000+i), 1, 2)
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
// path — encoded into the packet's own buffer, stamped in place by μFAB-C on
// the source's uplink and on four switches, flipped into its response in
// that buffer at the far edge, decoded into the agent's scratch and copied
// into the path's own storage at the source — allocates the probe-loss
// timeout's closure and nothing else.
func TestProbeRoundTripAllocationBudget(t *testing.T) {
	eng := sim.New()
	ch := topo.NewChain(4, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, ch.Graph, dataplane.Config{})
	for _, n := range append([]topo.NodeID{ch.Src}, ch.Switches...) {
		net.SetSwitchAgent(n, ufabc.New(ufabc.Config{}))
	}
	cfg := Config{TokenPeriod: -1, CandidateProbeInterval: -1}
	src, dst := New(eng, net, ch.Src, cfg), New(eng, net, ch.Dst, cfg)
	src.AddVF(1, 10, 2)
	dst.AddVF(1, 10, 2)
	p := src.AddPair(PairConfig{ID: 1, VF: 1, Dst: ch.Dst, Routes: ch.Graph.Paths(ch.Src, ch.Dst, 0), Phi: 10, Demand: &Buffer{}})
	ps := p.paths[p.active]
	roundTrip := func() {
		src.sendProbe(p, p.active, probe.KindProbe)
		eng.Run() // through the response and the timeout check that finds it answered
	}
	roundTrip() // past the bootstrap probe; registers, scratch and free list warm
	if a := testing.AllocsPerRun(200, roundTrip); a > 1 {
		t.Errorf("%v allocations per probe round trip, want <= 1 (the timeout closure)", a)
	}
	if ps.respSeq != ps.probeSeq || ps.probeSeq < 202 || len(ps.lastResp.Hops) != 5 || ps.lastResp.Kind != probe.KindResponse {
		t.Errorf("after %d probes: answered up to %d, last response %+v", ps.probeSeq, ps.respSeq, ps.lastResp)
	}
}

// TestTokenUpdateAllocations: a token tick works out of the agent's scratch
// and token.SenderAssign out of its stack, so it allocates nothing for the
// pairs the host sources — and not one byte more for 1 024 tenants registered
// on the edge that have no pair here.
func TestTokenUpdateAllocations(t *testing.T) {
	var allocs [2]float64
	for i, idle := range []int{0, 1024} {
		r, _ := sendRig(t, idle)
		r.src.cfg.TokenPeriod = 32 * sim.Microsecond // the tick itself stays off; we call it
		r.src.tokenUpdate()
		allocs[i] = testing.AllocsPerRun(200, r.src.tokenUpdate)
	}
	if allocs[1] > allocs[0] {
		t.Errorf("tokenUpdate allocates %v with 1024 registered-but-empty VFs, %v with none", allocs[1], allocs[0])
	}
	if allocs[0] != 0 {
		t.Errorf("tokenUpdate allocates %v per tick for one backlogged pair, want 0", allocs[0])
	}
}

// poisonEmptyVFs replaces every registered-but-empty VF of the scheduler by
// nil: a pick or a tick that so much as looked at one would crash.
func poisonEmptyVFs(w *wfq) {
	for c := range w.classes {
		for i, vf := range w.classes[c].vfs {
			if len(vf.pairs) == 0 {
				w.classes[c].vfs[i] = nil
			}
		}
	}
}

// TestPickIgnoresEmptyVFs: the per-packet pick and the token tick visit the
// VFs that have pairs on this host and no others, however many tenants the
// edge has registered. (BenchmarkNextPair has the nanoseconds.)
func TestPickIgnoresEmptyVFs(t *testing.T) {
	r, p := sendRig(t, 1024)
	r.src.cfg.TokenPeriod = 32 * sim.Microsecond
	poisonEmptyVFs(r.src.sched)
	for i := 0; i < 100; i++ {
		r.nextPacket(p)
		r.src.tokenUpdate()
	}
	// An empty pick sweeps every class twice.
	p.Demand.Consume(p.Demand.Pending())
	if got := r.src.sched.nextPair(int64(r.eng.Now()), 1500); got != nil {
		t.Fatalf("picked a pair with no demand")
	}
}

// BenchmarkNextPair is one pick + charge on an edge that sources one
// backlogged pair, bare and with 1 024 other tenants registered: the two
// must cost the same.
func BenchmarkNextPair(b *testing.B) {
	for _, idle := range []int{0, 1024} {
		b.Run(fmt.Sprintf("registered=%d", idle), func(b *testing.B) {
			w := newWFQ()
			for i := 0; i < idle; i++ {
				w.addVF(&vfState{id: int32(1000 + i), class: 2})
			}
			vf := &vfState{id: 1, class: 2}
			w.addVF(vf)
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
