package ufabc

import (
	"math"
	"testing"

	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// testNet builds a 2-host star with a μFAB-C agent on the switch and
// returns everything needed to push probes through it.
func testNet(t *testing.T, cfg Config) (*sim.Engine, *dataplane.Network, *topo.Star, *Agent, topo.Path) {
	t.Helper()
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, st.Graph, dataplane.Config{})
	ag := New(cfg)
	net.SetSwitchAgent(st.Center, ag)
	route := st.Graph.Paths(st.Hosts[0], st.Hosts[1], 1)[0]
	return eng, net, st, ag, route
}

// sendProbe sends p along route in a pool-born packet of the route's source,
// encoded into the packet's own buffer, as an edge does.
func sendProbe(net *dataplane.Network, route topo.Path, p *probe.Packet) {
	pkt := net.NewPacket(net.G.PathSrc(route))
	var err error
	if pkt.Payload, err = p.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	pkt.Kind, pkt.VMPair, pkt.Size, pkt.Route = dataplane.Probe, dataplane.VMPair(p.VMPair), probe.WireSize(len(p.Hops)), route
	net.Send(pkt)
}

// sendData sends a 1500-byte data packet along route in a pool-born packet.
func sendData(net *dataplane.Network, route topo.Path) {
	pkt := net.NewPacket(net.G.PathSrc(route))
	pkt.Kind, pkt.Size, pkt.Route = dataplane.Data, 1500, route
	net.Send(pkt)
}

func TestProbeAccumulatesRegisters(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	var got *probe.Packet
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {
		p, _, err := probe.Decode(pkt.Payload)
		if err != nil {
			t.Errorf("decode at dst: %v", err)
			return
		}
		got = p
	}))
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, PathID: 0, Phi: 5, Window: 64 * 1024})
	eng.Run()
	if got == nil {
		t.Fatal("probe not delivered")
	}
	if len(got.Hops) != 1 {
		t.Fatalf("hops = %d, want 1 (switch egress)", len(got.Hops))
	}
	h := got.Hops[0]
	if math.Abs(h.TotalTokens-5) > 0.11 {
		t.Errorf("Φ = %v, want 5", h.TotalTokens)
	}
	if h.TotalWindow < 63*1024 || h.TotalWindow > 65*1024 {
		t.Errorf("W = %d, want ≈64KiB", h.TotalWindow)
	}
	// Target capacity is η·10G = 9.5G, advertised via the nearest speed
	// class (10G).
	if h.Capacity != 10e9 {
		t.Errorf("C = %v", h.Capacity)
	}
	phi, w := ag.Subscription(route[1])
	if math.Abs(phi-5) > 1e-6 || w != 64*1024 {
		t.Errorf("registers: Φ=%v W=%d", phi, w)
	}
}

func TestMultipleVMPairsSum(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	for vm := uint32(1); vm <= 10; vm++ {
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: vm, Phi: 2, Window: 1024})
	}
	eng.Run()
	phi, w := ag.Subscription(route[1])
	if math.Abs(phi-20) > 1e-6 {
		t.Errorf("Φ = %v, want 20", phi)
	}
	if w != 10240 {
		t.Errorf("W = %d, want 10240", w)
	}
}

func TestRepeatedProbeUpdatesNotDoubleCounts(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	for i := 0; i < 5; i++ {
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 5, Window: uint32(1024 * (i + 1))})
		eng.Run()
	}
	phi, w := ag.Subscription(route[1])
	if math.Abs(phi-5) > 1e-6 {
		t.Errorf("Φ = %v, want 5 (no double count)", phi)
	}
	if w != 5120 {
		t.Errorf("W = %d, want 5120 (latest window)", w)
	}
}

func TestFinishProbeDeducts(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 5, Window: 1024})
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 2, Phi: 3, Window: 512})
	eng.Run()
	sendProbe(net, route, &probe.Packet{Kind: probe.KindFinish, VMPair: 1, Phi: 5, Window: 1024})
	eng.Run()
	phi, w := ag.Subscription(route[1])
	if math.Abs(phi-3) > 1e-6 || w != 512 {
		t.Errorf("after finish: Φ=%v W=%d, want 3/512", phi, w)
	}
}

func TestSilentQuitCleanup(t *testing.T) {
	cfg := Config{CleanupPeriod: 10 * sim.Millisecond}
	eng, net, st, ag, route := testNet(t, cfg)
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	stop := ag.StartCleanup(eng)
	defer stop()
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 5, Window: 1000})
	// Keep VM-pair 2 alive with periodic probes.
	aliveStop := eng.Every(5*sim.Millisecond, func() {
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 2, Phi: 3, Window: 500})
	})
	eng.RunUntil(25 * sim.Millisecond)
	aliveStop()
	phi, _ := ag.Subscription(route[1])
	if math.Abs(phi-3) > 1e-6 {
		t.Errorf("after cleanup Φ = %v, want 3 (silent VM-pair expired)", phi)
	}
}

func TestTelemetryReflectsLoadAndQueue(t *testing.T) {
	eng, net, st, _, route := testNet(t, Config{})
	var last *probe.Packet
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {
		if pkt.Kind == dataplane.Probe {
			last, _, _ = probe.Decode(pkt.Payload)
		}
	}))
	// Saturate the switch→host link with data from host 0, then probe.
	var feed func()
	feed = func() {
		if eng.Now() > 100*sim.Microsecond {
			return
		}
		sendData(net, route)
		eng.After(1200*sim.Nanosecond, feed) // 10 Gbps line rate
	}
	eng.At(0, feed)
	eng.At(95*sim.Microsecond, func() {
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 9, Phi: 1, Window: 1})
	})
	eng.Run()
	if last == nil {
		t.Fatal("no probe delivered")
	}
	h := last.Hops[0]
	if h.TxRate < 0.7*10e9 {
		t.Errorf("probe tx rate = %v, want near line rate", h.TxRate)
	}
}

func TestDataPacketsUntouched(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	// The network takes the packet back when the handler returns: copy it.
	var got *dataplane.Packet
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) { cp := *pkt; got = &cp }))
	sendData(net, route)
	eng.Run()
	if got == nil || got.Size != 1500 || got.Payload != nil {
		t.Fatalf("data packet modified: %+v", got)
	}
	if phi, w := ag.Subscription(route[1]); phi != 0 || w != 0 {
		t.Error("data packet affected registers")
	}
	if ag.ProbesSeenCount() != 0 {
		t.Error("data packet counted as probe")
	}
}

func TestMalformedProbeIgnored(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	pkt := net.NewPacket(st.Hosts[0])
	pkt.Kind, pkt.Size, pkt.Route, pkt.Payload = dataplane.Probe, 10, route, append(pkt.Payload, 0xff, 0x01)
	net.Send(pkt)
	eng.Run()
	if phi, _ := ag.Subscription(route[1]); phi != 0 {
		t.Error("malformed probe affected registers")
	}
}

func TestProbeSizeGrowsPerHop(t *testing.T) {
	// Across the testbed (host agent absent), a cross-pod probe gains
	// one hop record per switch: 5 switches on a 6-link path.
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	net := dataplane.New(eng, tb.Graph, dataplane.Config{})
	for _, sw := range [][]topo.NodeID{tb.ToRs, tb.Aggs, tb.Cores} {
		for _, id := range sw {
			net.SetSwitchAgent(id, New(Config{}))
		}
	}
	route := tb.Graph.Paths(tb.Servers[0], tb.Servers[4], 1)[0]
	var got *probe.Packet
	var gotSize int
	net.SetHandler(tb.Servers[4], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {
		got, _, _ = probe.Decode(pkt.Payload)
		gotSize = pkt.Size
	}))
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 1, Window: 1000})
	eng.Run()
	if got == nil {
		t.Fatal("probe lost")
	}
	if len(got.Hops) != 5 {
		t.Fatalf("hops = %d, want 5", len(got.Hops))
	}
	if gotSize != probe.WireSize(5) {
		t.Errorf("packet size = %d, want %d", gotSize, probe.WireSize(5))
	}
	// Hop link IDs must follow the route's switch egress links.
	for i, h := range got.Hops {
		if topo.LinkID(h.LinkID) != route[i+1] {
			t.Errorf("hop %d link = %d, want %d", i, h.LinkID, route[i+1])
		}
	}
}

func TestRestartWipesAndRebuildsWithoutDoubleCount(t *testing.T) {
	eng, net, st, ag, route := testNet(t, Config{})
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 5, Window: 1024})
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 2, Phi: 3, Window: 512})
	eng.Run()
	if phi, w := ag.Subscription(route[1]); math.Abs(phi-8) > 1e-6 || w != 1536 {
		t.Fatalf("pre-restart registers: Φ=%v W=%d", phi, w)
	}
	ag.Restart()
	if ag.RestartCount() != 1 {
		t.Errorf("RestartCount = %d, want 1", ag.RestartCount())
	}
	if phi, w := ag.Subscription(route[1]); phi != 0 || w != 0 {
		t.Fatalf("post-restart registers not wiped: Φ=%v W=%d", phi, w)
	}
	// Each pair re-registers on its next probe; repeated probes after the
	// rebuild must stay idempotent (no double count against the fresh
	// table).
	for i := 0; i < 2; i++ {
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 5, Window: 1024})
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 2, Phi: 3, Window: 512})
		eng.Run()
	}
	if phi, w := ag.Subscription(route[1]); math.Abs(phi-8) > 1e-6 || w != 1536 {
		t.Fatalf("rebuilt registers: Φ=%v W=%d, want 8/1536", phi, w)
	}
}

func TestRestartThenCleanupExpiresStalePairs(t *testing.T) {
	// Satellite check for silent-quit cleanup × faults: the cleanup loop
	// keeps operating on the registers an agent rebuilds after a restart.
	cfg := Config{CleanupPeriod: 10 * sim.Millisecond}
	eng, net, st, ag, route := testNet(t, cfg)
	net.SetHandler(st.Hosts[1], dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
	stop := ag.StartCleanup(eng)
	defer stop()
	// VM-pair 1 registers once and never again; VM-pair 2 probes every
	// 5 ms until t = 25 ms.
	sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 1, Phi: 5, Window: 1024})
	aliveStop := eng.Every(5*sim.Millisecond, func() {
		sendProbe(net, route, &probe.Packet{Kind: probe.KindProbe, VMPair: 2, Phi: 3, Window: 512})
	})
	eng.At(12*sim.Millisecond, func() { ag.Restart() })
	eng.At(25*sim.Millisecond, aliveStop)
	var phiMid float64
	eng.At(21*sim.Millisecond, func() { phiMid, _ = ag.Subscription(route[1]) })
	eng.RunUntil(50 * sim.Millisecond)
	// Between restart and expiry only the still-probing pair is registered.
	if math.Abs(phiMid-3) > 1e-6 {
		t.Errorf("Φ = %v at 21 ms, want 3 (pair 1 wiped by restart, pair 2 rebuilt)", phiMid)
	}
	// Once pair 2 goes silent, the post-restart cleanup expires it too.
	if phi, w := ag.Subscription(route[1]); phi != 0 || w != 0 {
		t.Errorf("Φ=%v W=%d at 50 ms, want 0/0 (cleanup dead after restart?)", phi, w)
	}
}

// TestOnForwardSteadyStateAllocatesNothing is the tier-1 gate on per-switch
// probe garbage: once a link's pairs are registered, stamping a probe whose
// payload has room for the record (as the edges encode them) allocates
// nothing — no decoded packet, no hop slice, no regrown buffer.
func TestOnForwardSteadyStateAllocatesNothing(t *testing.T) {
	_, net, st, ag, _ := testNet(t, Config{})
	port := net.Port(st.Graph.Node(st.Center).Out[0])
	const pairs = 64
	wires := make([][]byte, pairs)
	for i := range wires {
		p := &probe.Packet{Kind: probe.KindProbe, VMPair: uint32(i + 1), PathID: 1, Seq: 1, Phi: 10, Window: 32 << 10}
		wires[i], _ = p.Encode(nil)
	}
	pkt := net.NewPacket(st.Center) // held, never sent: OnForward alone stamps it
	pkt.Kind, pkt.Payload = dataplane.Probe, make([]byte, 0, probe.PayloadSize(2))
	i := 0
	fwd := func() {
		pkt.Payload = append(pkt.Payload[:0], wires[i%pairs]...)
		i++
		ag.OnForward(pkt, port, sim.Time(i)*sim.Microsecond)
	}
	for range wires {
		fwd() // first sight of a pair allocates its bucket page
	}
	if a := testing.AllocsPerRun(1000, fwd); a != 0 {
		t.Errorf("steady-state OnForward allocates %v times per probe, want 0", a)
	}
	got, _, err := probe.Decode(pkt.Payload)
	if err != nil || len(got.Hops) != 1 || got.Hops[0].LinkID != int32(port.Link.ID) || pkt.Size != probe.WireSize(1) {
		t.Errorf("stamped probe: %+v, size %d, err %v", got, pkt.Size, err)
	}
	if phi, w := ag.Subscription(port.Link.ID); phi != 10*pairs || w != pairs*(32<<10) {
		t.Errorf("registers Φ=%v W=%d after %d pairs", phi, w, pairs)
	}
}
