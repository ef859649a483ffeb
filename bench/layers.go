package main

// Per-layer drivers: each times calls into one layer's exported functions
// from outside, with no workload around them. They are never gated; they
// exist so that a change in an end-to-end metric can be charged to a layer.
// Counters and pprof labels inside the program are a later issue.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ufab/internal/audit"
	"ufab/internal/bloom"
	"ufab/internal/chaos"
	"ufab/internal/ctlplane"
	"ufab/internal/dataplane"
	"ufab/internal/placement"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
	"ufab/internal/vfabric"
	"ufab/internal/workload"
)

// reading is one per-layer measurement: the median over timed batches,
// their median absolute deviation and how many batches there were. Exact
// readings (counts) have MAD 0 and N 1.
type reading struct {
	Value float64 `json:"value"`
	MAD   float64 `json:"mad"`
	N     int     `json:"n"`
}

// layerBench runs the per-layer drivers. budget is the wall time each
// timed loop runs for: a second in the layer run, a fraction of that where
// the drivers ride along with a traced benchmark run.
type layerBench struct {
	budget time.Duration
	sc     scale
	seed   int64
	out    map[string]reading
	checks []string
}

func (lb *layerBench) set(name string, v float64) {
	lb.out[name] = reading{Value: v, N: 1}
}

func (lb *layerBench) failf(format string, args ...any) {
	lb.checks = append(lb.checks, fmt.Sprintf(format, args...))
}

// perCall times fn in batches of `batch` calls until the budget is spent
// (at least five batches) and records the median wall time per call,
// divided by div (1 for ns, 1e3 for µs, 1e6 for ms).
func (lb *layerBench) perCall(name string, div float64, batch int, fn func()) {
	var per []float64
	lb.spend(func() bool {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch)/div)
		return true
	})
	lb.record(name, per)
}

// spend calls batch until the budget is spent — at least five times, at
// most a thousand — or until batch returns false.
func (lb *layerBench) spend(batch func() bool) {
	deadline := time.Now().Add(lb.budget)
	for n := 0; n < 1000 && (n < 5 || time.Now().Before(deadline)); n++ {
		if !batch() {
			return
		}
	}
}

// record stores the median, MAD and count of a driver's per-batch values
// (nothing when a failed check stopped the driver before its first batch).
func (lb *layerBench) record(name string, per []float64) {
	if len(per) > 0 {
		lb.out[name] = reading{Value: median(per), MAD: mad(per), N: len(per)}
	}
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	fn() // warm: lazily grown buffers are not steady-state allocations
	m0 := readMem()
	for i := 0; i < n; i++ {
		fn()
	}
	m1 := readMem()
	return float64(m1.mallocs-m0.mallocs) / float64(n)
}

// ctlClos is the daemon's 32-host fabric; the placement and ctlplane
// drivers use it so their numbers speak for ctl_churn.
func ctlClos() *topo.Clos {
	return topo.NewClos(topo.ClosConfig{Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
}

// runLayers runs every driver and returns the readings by metric name.
func runLayers(sc scale, seed int64, budget time.Duration) (map[string]reading, []string) {
	lb := &layerBench{budget: budget, sc: sc, seed: seed, out: map[string]reading{}}
	for _, drv := range []func(){
		lb.simLayer, lb.topoLayer, lb.dataplaneLayer, lb.probeLayer, lb.ufabcLayer, lb.ufabeLayer,
		lb.vfabricLayer, lb.telemetryLayer, lb.auditLayer, lb.placementLayer,
		lb.ctlLedgerLayer, lb.ctlStoreLayer, lb.ctlServiceLayer,
	} {
		drv()
		runtime.GC() // one driver's garbage is not the next one's pause
	}
	return lb.out, lb.checks
}

var noop = func() {}

func (lb *layerBench) simLayer() {
	e := sim.New()
	lb.perCall("sim.sched_fire_ns", 1, 4096, func() {
		e.At(e.Now()+sim.Nanosecond, noop)
		e.Step()
	})
	lb.perCall("sim.cancel_ns", 1, 4096, func() {
		h := e.At(e.Now()+sim.Nanosecond, noop)
		e.Cancel(h)
		e.Step()
	})
	// The hold model: pop one event, push one at a pseudo-random distance,
	// at a steady heap depth. At 64 k pending events the heap no longer
	// fits the cache, which is the cost the 1024-host fabric pays.
	hold := func(depth int) *sim.Engine {
		e := sim.New()
		x := uint64(0x9e3779b97f4a7c15)
		var self func()
		self = func() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			e.After(sim.Duration(x%2000)*sim.Nanosecond, self)
		}
		for j := 0; j < depth; j++ {
			e.After(sim.Duration(j%2000)*sim.Nanosecond, self)
		}
		return e
	}
	e1k := hold(1 << 10)
	lb.perCall("sim.hold_ns_d1k", 1, 4096, func() { e1k.Step() })
	lb.set("sim.hold_allocs", allocsPer(20000, func() { e1k.Step() }))
	e64k := hold(1 << 16)
	lb.perCall("sim.hold_ns_d64k", 1, 4096, func() { e64k.Step() })
}

func (lb *layerBench) topoLayer() {
	lb.perCall("topo.clos1k_build_ms", 1e6, 1, func() { topo.NewClos(lb.sc.Fabric) })
	cl := topo.NewClos(topo.Paper512(16))
	n := len(cl.Hosts)
	// Every (src, dst) is asked for once, so every call misses the memo.
	i := 0
	lb.perCall("topo.paths_cold_us", 1e3, 16, func() {
		if i >= n*(n-1) {
			cl, i = topo.NewClos(topo.Paper512(16)), 0
		}
		src, off := i/(n-1), 1+i%(n-1)
		i++
		if len(cl.Graph.Paths(cl.Hosts[src], cl.Hosts[(src+off)%n], 0)) == 0 {
			panic("bench: no path")
		}
	})
	src, dst := cl.Hosts[0], cl.Hosts[n-1]
	lb.perCall("topo.paths_warm_ns", 1, 1024, func() { cl.Graph.Paths(src, dst, 0) })
}

func (lb *layerBench) dataplaneLayer() {
	eng := sim.New()
	cl := topo.FatTree(lb.sc.RPCK, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, cl.Graph, dataplane.Config{})
	n := len(cl.Hosts)
	dst := cl.Hosts[n-1]
	net.SetHandler(dst, dataplane.HandlerFunc(func(*dataplane.Packet) {}))
	route := cl.Graph.Paths(cl.Hosts[0], dst, 1)[0]
	hops := float64(len(route))
	one := func() {
		net.Send(&dataplane.Packet{Kind: dataplane.Data, Size: 1500, Route: route})
		eng.Run()
	}
	lb.perCall("dataplane.hop_ns", hops, 256, one)
	lb.set("dataplane.hop_allocs", allocsPer(2000, one)/hops)
	ev0 := eng.Stats().Processed
	one()
	lb.set("dataplane.events_per_hop", float64(eng.Stats().Processed-ev0)/hops)

	// Incast: sixteen sources burst at one destination, so the last hops
	// queue. Sources come from the far half of the fabric so every route
	// crosses the core.
	const fanIn, burst = 16, 8
	var routes []topo.Path
	for s := 0; s < fanIn && s < n/2; s++ {
		routes = append(routes, cl.Graph.Paths(cl.Hosts[s], dst, 1)[0])
	}
	incastHops := 0.0
	for _, r := range routes {
		incastHops += float64(len(r)) * burst
	}
	lb.perCall("dataplane.hop_ns_incast", incastHops, 16, func() {
		for b := 0; b < burst; b++ {
			for _, r := range routes {
				net.Send(&dataplane.Packet{Kind: dataplane.Data, Size: 1500, Route: r})
			}
		}
		eng.Run()
	})
	if net.TotalDrops != 0 {
		lb.failf("dataplane driver: %d drops", net.TotalDrops)
	}
}

// fiveHopProbe is a probe that has crossed five switches.
func fiveHopProbe() *probe.Packet {
	p := &probe.Packet{Kind: probe.KindProbe, VMPair: 77, PathID: 2, Seq: 9, Phi: 12.5, Window: 64 << 10, SentAt: 1e6}
	for h := 0; h < 5; h++ {
		if err := p.AppendHop(probe.Hop{TotalWindow: 1 << 20, TotalTokens: 80, TxRate: 8e9, Queue: 4096,
			Capacity: 9.5e9, LinkID: int32(h)}); err != nil {
			panic(err)
		}
	}
	return p
}

func (lb *layerBench) probeLayer() {
	p := fiveHopProbe()
	buf := make([]byte, 0, 256)
	lb.perCall("probe.encode_ns", 1, 4096, func() {
		if _, err := p.Encode(buf[:0]); err != nil {
			panic(err)
		}
	})
	wire, _ := p.Encode(nil)
	decode := func() {
		if _, _, err := probe.Decode(wire); err != nil {
			panic(err)
		}
	}
	lb.perCall("probe.decode_ns", 1, 4096, decode)
	lb.set("probe.decode_allocs", allocsPer(20000, decode))
	hop := p.Hops[4]
	lb.perCall("probe.append_hop_ns", 1, 4096, func() {
		p.Hops = p.Hops[:4]
		if err := p.AppendHop(hop); err != nil {
			panic(err)
		}
	})
	tb := bloom.New(16384)
	i := 0
	lb.perCall("bloom.update_ns", 1, 4096, func() {
		tb.Update(uint64(i%20000), 1, uint32(i), int64(i))
		i++
	})
}

func (lb *layerBench) ufabcLayer() {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, st.Graph, dataplane.Config{})
	port := net.Port(st.Graph.Node(st.Center).Out[0])
	ag := ufabc.New(ufabc.Config{})
	// 1024 pairs re-register in turn, each probe arriving with one hop
	// already stamped: the steady state of a switch port.
	const pairs = 1024
	wires := make([][]byte, pairs)
	for i := range wires {
		p := &probe.Packet{Kind: probe.KindProbe, VMPair: uint32(i + 1), PathID: 1, Seq: 1, Phi: 10, Window: 32 << 10}
		if err := p.AppendHop(probe.Hop{TotalWindow: 1 << 18, TotalTokens: 40, TxRate: 5e9, Capacity: 9.5e9}); err != nil {
			panic(err)
		}
		wires[i], _ = p.Encode(nil)
	}
	pkt := &dataplane.Packet{Kind: dataplane.Probe, Payload: make([]byte, 0, 256)}
	i := 0
	fwd := func() {
		// OnForward re-encodes in place, so each call starts from a copy
		// of the pristine wire form (a few ns, included).
		pkt.Payload = append(pkt.Payload[:0], wires[i%pairs]...)
		i++
		ag.OnForward(pkt, port, sim.Time(i)*sim.Microsecond)
	}
	lb.perCall("ufabc.on_forward_probe_ns", 1, 4096, fwd)
	lb.set("ufabc.on_forward_allocs", allocsPer(20000, fwd))
	data := &dataplane.Packet{Kind: dataplane.Data, Size: 1500}
	lb.perCall("ufabc.on_forward_data_ns", 1, 4096, func() { ag.OnForward(data, port, 0) })
	if got := ag.ProbesSeenCount(); got == 0 {
		lb.failf("ufabc driver: agent saw no probe")
	}
}

// edgeRig is the smallest fabric that exercises μFAB-E: two hosts on one
// switch.
type edgeRig struct {
	eng *sim.Engine
	f   *vfabric.Fabric
	st  *topo.Star
}

func newEdgeRig(seed int64, idleVFs int) *edgeRig {
	eng := sim.New()
	st := topo.NewStar(2, topo.Gbps(10), sim.Microsecond)
	f := vfabric.New(eng, st.Graph, vfabric.Config{Seed: seed})
	for i := 0; i < idleVFs; i++ {
		f.AddVF(int32(1000+i), 1e6, 0)
	}
	return &edgeRig{eng: eng, f: f, st: st}
}

func (lb *layerBench) ufabeLayer() {
	// Wall per delivered 1500 B packet of one backlogged pair, bare and
	// with 1024 idle VFs registered on the edge (the WFQ scans them).
	for _, c := range []struct {
		name string
		idle int
	}{{"ufabe.edge_pkt_ns", 0}, {"ufabe.edge_pkt_ns_vfs1k", 1024}} {
		rig := newEdgeRig(lb.seed, c.idle)
		vf := rig.f.AddVF(1, 5e9, 0)
		fl := rig.f.AddFlow(vf, rig.st.Hosts[0], rig.st.Hosts[1], 0)
		fl.Buffer.Add(1 << 50)
		rig.eng.RunUntil(200 * sim.Microsecond) // past the first probe round
		var per []float64
		lb.spend(func() bool {
			d0 := fl.Pair.Delivered
			t0 := time.Now()
			rig.eng.RunUntil(rig.eng.Now() + 500*sim.Microsecond)
			wall := float64(time.Since(t0).Nanoseconds())
			pkts := float64(fl.Pair.Delivered-d0) / 1500
			if pkts == 0 {
				lb.failf("%s: backlogged pair delivered nothing", c.name)
				return false
			}
			per = append(per, wall/pkts)
			return true
		})
		lb.record(c.name, per)
	}

	// One 1 KiB message on a pair that has gone idle: wake, probe, admit,
	// deliver, go idle again. 1 ms between messages is five idle timeouts.
	rig := newEdgeRig(lb.seed, 0)
	vf := rig.f.AddVF(1, 1e9, 0)
	msgs := &workload.Messages{}
	rig.f.AddFlowDemand(vf, rig.st.Hosts[0], rig.st.Hosts[1], 0, msgs)
	rig.eng.RunUntil(sim.Millisecond)
	lb.perCall("ufabe.short_msg_us", 1e3, 16, func() {
		msgs.Send(1024, rig.eng.Now())
		rig.eng.RunUntil(rig.eng.Now() + sim.Millisecond)
	})
	if msgs.Outstanding() != 0 || msgs.Completed == 0 {
		lb.failf("ufabe.short_msg_us: %d messages outstanding, %d completed", msgs.Outstanding(), msgs.Completed)
	}
}

func (lb *layerBench) vfabricLayer() {
	cl := topo.NewClos(lb.sc.Fabric)
	var f *vfabric.Fabric
	lb.perCall("vfabric.build_ms", 1e6, 1, func() {
		var err error
		f, err = vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Cfg: vfabric.Config{Seed: lb.seed}})
		if err != nil {
			panic(err)
		}
	})
	id := int32(0)
	var vf *vfabric.VF
	lb.perCall("vfabric.add_vf_us", 1e3, 4, func() {
		id++
		vf = f.AddVF(id, 1e9, 0)
	})
	n := len(cl.Hosts)
	i := 0
	lb.perCall("vfabric.add_flow_us", 1e3, 16, func() {
		f.AddFlow(vf, cl.Hosts[i%n], cl.Hosts[(i+n/2)%n], 0)
		i++
	})

	// The Materializer path the control plane drives, on its own fabric.
	ccl := ctlClos()
	eng := sim.New()
	cf, err := vfabric.Build(vfabric.BuildOptions{Graph: ccl.Graph, Cfg: vfabric.Config{Seed: lb.seed}, Eng: eng})
	if err != nil {
		panic(err)
	}
	h := ccl.Hosts
	spec := chaos.TenantSpec{VF: 1, GuaranteeBps: 0.5e9, WeightClass: 3, Pairs: []chaos.PairSpec{
		{Src: h[0], Dst: h[9], BacklogBytes: 4096}, {Src: h[9], Dst: h[18], BacklogBytes: 4096}, {Src: h[18], Dst: h[0], BacklogBytes: 4096}}}
	lb.perPairUs("vfabric.add_tenant_us", "vfabric.remove_tenant_us",
		func() bool { return cf.AddTenant(spec) },
		func() bool { return cf.RemoveTenant(spec.VF) },
		func() { eng.RunUntil(eng.Now() + 50*sim.Microsecond) }) // drain the finish probes
}

// perPairUs times two operations that must alternate (add, remove) in
// batches of 32 pairs and records each one's wall time per call in µs.
// between runs untimed after every batch; a refusal fails the driver.
func (lb *layerBench) perPairUs(nameA, nameB string, a, b func() bool, between func()) {
	const batch = 32
	var perA, perB []float64
	lb.spend(func() bool {
		var da, db time.Duration
		for k := 0; k < batch; k++ {
			t0 := time.Now()
			okA := a()
			t1 := time.Now()
			okB := b()
			db += time.Since(t1)
			da += t1.Sub(t0)
			if !okA || !okB {
				lb.failf("%s/%s: operation refused (%v/%v)", nameA, nameB, okA, okB)
				return false
			}
		}
		perA = append(perA, float64(da.Nanoseconds())/batch/1e3)
		perB = append(perB, float64(db.Nanoseconds())/batch/1e3)
		between()
		return true
	})
	lb.record(nameA, perA)
	lb.record(nameB, perB)
}

func (lb *layerBench) telemetryLayer() {
	var off *telemetry.Registry
	cOff := off.Counter("bench.counter")
	lb.perCall("telemetry.counter_disabled_ns", 1, 1<<16, func() { cOff.Inc() })
	reg := telemetry.New()
	cOn := reg.Counter("bench.counter")
	lb.perCall("telemetry.counter_enabled_ns", 1, 1<<16, func() { cOn.Inc() })
	rec := reg.EnableRecorder(1 << 12)
	i := int64(0)
	lb.perCall("telemetry.record_ns", 1, 1<<14, func() {
		i++
		rec.Record(telemetry.Event{T: i, Kind: telemetry.EvDrop, B: i, Trace: telemetry.SpanID(i), Span: 1})
	})
	h := reg.Histogram("bench.hist")
	lb.perCall("telemetry.hist_observe_ns", 1, 1<<16, func() {
		i++
		h.Observe(float64(i & 0xffff))
	})
}

func (lb *layerBench) auditLayer() {
	// One tick over a sample the size of the clos128_* fabric.
	cl := topo.FatTree(lb.sc.RPCK, topo.Gbps(10), sim.Microsecond)
	nLinks, nPairs, nVFs := len(cl.Graph.Links), len(cl.Hosts)*rpcPairsPerHost, lb.sc.RPCVFs
	a := audit.New(audit.Config{})
	s := &audit.Sample{
		Links: make([]audit.LinkSample, nLinks),
		Pairs: make([]audit.PairSample, nPairs),
		VFs:   make([]audit.VFSample, nVFs),
	}
	entities := make([]string, nLinks)
	for i := range entities {
		entities[i] = fmt.Sprintf("link.bench-%d", i)
	}
	routes := make([][]int32, nPairs)
	for i := range routes {
		routes[i] = []int32{int32(i % nLinks), int32((i + 1) % nLinks)}
	}
	const tickPS = int64(250 * sim.Microsecond)
	t := int64(0)
	tick := func() {
		t += tickPS
		bytesAt := func(rate float64) int64 { return int64(rate / 8 * float64(t) / 1e12) }
		for i := range s.Links {
			s.Links[i] = audit.LinkSample{Entity: entities[i], TargetBps: 9.5e9, TxBytes: uint64(bytesAt(8e9)),
				QueueBytes: 4096, HasCore: true, PhiTokens: 80, WindowBytes: 200_000, LivePhiCand: 80, LivePhiActive: 80}
		}
		for i := range s.Pairs {
			s.Pairs[i] = audit.PairSample{VM: int64(1000 + i), VF: int32(i % nVFs), PhiBps: rpcPairBps,
				Backlogged: true, Delivered: bytesAt(rpcPairBps), Links: routes[i]}
		}
		for i := range s.VFs {
			s.VFs[i] = audit.VFSample{ID: int32(i), GuaranteeBps: rpcPairBps}
		}
		s.T = t
		a.Tick(s)
	}
	for i := 0; i < 50; i++ {
		tick() // past the check window: the steady-state path
	}
	lb.perCall("audit.tick_us", 1e3, 4, tick)
	ev := telemetry.Event{Kind: telemetry.EvProbeTX, Entity: "ufabe.h1", A: 1, B: 2}
	lb.perCall("audit.observe_event_ns", 1, 1<<14, func() {
		ev.T++
		a.ObserveEvent(ev)
	})
}

// ctlPairSets draws n random tenant placements of 1..maxPairs pairs.
func ctlPairSets(cl *topo.Clos, rng *rand.Rand, n, maxPairs int) [][]placement.Pair {
	sets := make([][]placement.Pair, n)
	for i := range sets {
		for want := 1 + rng.Intn(maxPairs); len(sets[i]) < want; {
			s := cl.Hosts[rng.Intn(len(cl.Hosts))]
			d := cl.Hosts[rng.Intn(len(cl.Hosts))]
			if s != d {
				sets[i] = append(sets[i], placement.Pair{Src: s, Dst: d})
			}
		}
	}
	return sets
}

func (lb *layerBench) placementLayer() {
	cl := ctlClos()
	rng := rand.New(rand.NewSource(lb.seed + 41))
	const standing = 200
	sets := ctlPairSets(cl, rng, standing+64, 3)
	l := placement.NewLedger(cl.Graph, 0)
	for id := 1; id <= standing; id++ {
		if err := l.Commit(int32(id), 1e8, sets[id-1]); err != nil {
			panic(err)
		}
	}
	i := 0
	lb.perCall("placement.ledger.commit_release_ns", 1, 256, func() {
		if err := l.Commit(standing+1, 1e8, sets[standing+i%64]); err != nil {
			panic(err)
		}
		l.Release(standing + 1)
		i++
	})
	lb.perCall("placement.ledger.verify_us", 1e3, 4, func() {
		if err := l.Verify(); err != nil {
			panic(err)
		}
	})
	fleet := placement.NewFleet(cl.Graph, 4)
	fleet.Place(cl.Hosts[:len(cl.Hosts)/3]) // a third of the hosts carry one VM
	req := placement.Request{ID: 9999, GuaranteeBps: 0.5e9, VMs: 3, WeightClass: 3}
	for _, name := range []string{"first-fit", "spread", "subscription-aware"} {
		pol := placement.PolicyByName(name)
		lb.perCall("placement.policy.place_ns."+name, 1, 256, func() {
			if len(pol.Place(req, fleet, l)) != req.VMs {
				panic("bench: policy placed nothing")
			}
		})
	}
}

func (lb *layerBench) ctlLedgerLayer() {
	cl := ctlClos()
	rng := rand.New(rand.NewSource(lb.seed + 43))
	sets := ctlPairSets(cl, rng, 1024, 1)
	sh := ctlplane.NewShardedLedger(cl.Graph, 4, 0, 1.0)
	for id := 1; id <= 64; id++ {
		if err := sh.Admit(int32(id), 1e8, sets[id]); err != nil {
			panic(err)
		}
	}
	i := 0
	lb.perCall("ctlplane.ledger.admit_release_ns", 1, 1024, func() {
		i++
		if err := sh.Admit(1000, 1e8, sets[i%len(sets)]); err != nil {
			panic(err)
		}
		sh.Release(1000)
	})
	lb.perCall("ctlplane.ledger.evaluate_ns", 1, 1024, func() {
		i++
		if _, _, err := sh.Evaluate(1e8, sets[i%len(sets)]); err != nil {
			panic(err)
		}
	})
	if err := sh.Verify(); err != nil {
		lb.failf("ctlplane ledger driver: Verify: %v", err)
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func benchTenant(id int32) ctlplane.Tenant {
	return ctlplane.Tenant{ID: id, GuaranteeBps: 0.5e9, VMs: 3, WeightClass: 3, BacklogBytes: 4096,
		Status: ctlplane.StatusPlaced, Hosts: []topo.NodeID{3, 17, 29}, UpdatedPS: int64(id) * 1000}
}

func (lb *layerBench) ctlStoreLayer() {
	root, err := os.MkdirTemp(".", ".ufab-bench-layers-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)
	open := func(name string) *ctlplane.Store {
		st, err := ctlplane.Open(filepath.Join(root, name))
		if err != nil {
			panic(err)
		}
		return st
	}

	// Appends with the default checkpoint cadence, as the daemon runs.
	st := open("put")
	id := int32(0)
	lb.perCall("ctlplane.store.put_ns", 1, 256, func() {
		id++
		if err := st.Put(benchTenant(id%512 + 1)); err != nil {
			panic(err)
		}
	})
	st.Close()

	// Bytes per record and replay time need a WAL nothing truncates.
	st = open("wal")
	st.SetSnapshotEvery(1 << 30)
	walRecords := 10000
	if lb.sc.smoke() {
		walRecords = 500
	}
	for i := 1; i <= walRecords; i++ {
		if err := st.Put(benchTenant(int32(i%1000 + 1))); err != nil {
			panic(err)
		}
	}
	lb.set("ctlplane.store.put_bytes", float64(dirBytes(filepath.Join(root, "wal")))/float64(walRecords))
	st.Close()
	lb.perCall("ctlplane.store.replay_ms", 1e6, 1, func() {
		re := open("wal")
		if re.Len() != min(walRecords, 1000) {
			lb.failf("ctlplane store driver: replay found %d records", re.Len())
		}
		re.Close()
	})

	st = open("snap")
	st.SetSnapshotEvery(1 << 30)
	for i := 1; i <= 1000; i++ {
		if err := st.Put(benchTenant(int32(i))); err != nil {
			panic(err)
		}
	}
	lb.perCall("ctlplane.store.snapshot_ms", 1e6, 1, func() {
		if err := st.Snapshot(); err != nil {
			panic(err)
		}
	})
	st.Close()
}

func (lb *layerBench) ctlServiceLayer() {
	root, err := os.MkdirTemp(".", ".ufab-bench-layers-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)

	// Direct Service calls with the real store and the fabric materialiser.
	newSvc := func(dir string) (*ctlplane.Service, *ctlplane.Store, *sim.Engine) {
		cl := ctlClos()
		eng := sim.New()
		uf, err := vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Cfg: vfabric.Config{Seed: lb.seed}, Eng: eng})
		if err != nil {
			panic(err)
		}
		st, err := ctlplane.Open(filepath.Join(root, dir))
		if err != nil {
			panic(err)
		}
		svc := ctlplane.NewService(cl.Graph, st, uf, ctlplane.Config{SlotsPerHost: 64, Policy: placement.Spread{}})
		return svc, st, eng
	}
	svc, st, eng := newSvc("svc")
	req := placement.Request{ID: 1, GuaranteeBps: 0.5e9, VMs: 3, WeightClass: 3, BacklogBytes: 4096}
	lb.perPairUs("ctlplane.service.admit_us", "ctlplane.service.release_us",
		func() bool {
			req.ID++
			return svc.Admit(req, int64(eng.Now())).Accepted
		},
		func() bool { return svc.Release(req.ID, int64(eng.Now())) },
		func() { eng.RunUntil(eng.Now() + 50*sim.Microsecond) })
	if err := svc.Verify(); err != nil {
		lb.failf("ctlplane service driver: Verify: %v", err)
	}
	st.Close()

	// Recovery of 256 standing tenants onto a fresh fabric.
	svc, st, eng = newSvc("recover")
	small := placement.Request{GuaranteeBps: 1e7, VMs: 2, WeightClass: 3, BacklogBytes: 4096}
	for id := int32(1); id <= 256; id++ {
		small.ID = id
		if dec := svc.Admit(small, 0); !dec.Accepted {
			lb.failf("ctlplane recover driver: tenant %d refused (%s)", id, dec.Reason)
			return
		}
	}
	st.Close()
	lb.perCall("ctlplane.service.recover_ms", 1e6, 1, func() {
		svc, st, eng = newSvc("recover")
		if err := svc.Recover(int64(eng.Now())); err != nil {
			lb.failf("ctlplane recover driver: %v", err)
		}
		if n := svc.Ledger().Tenants(); n != 256 {
			lb.failf("ctlplane recover driver: %d tenants recovered, want 256", n)
		}
		st.Close()
	})

	// The same admit through the daemon's HTTP front end over loopback.
	d, err := ctlplane.NewDaemon(ctlplane.DaemonConfig{StoreDir: filepath.Join(root, "http"), Seed: lb.seed,
		TickEvery: time.Hour, SlotsPerHost: 64})
	if err != nil {
		panic(err)
	}
	go d.Loop()
	srv := httptest.NewServer(d.Handler())
	c := &ctlClient{base: srv.URL, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	hreq := ctlRequest{GuaranteeBps: 0.5e9, VMs: 3, WeightClass: 3, BacklogBytes: 4096}
	var httpUs []float64
	lb.spend(func() bool {
		var admit time.Duration
		const batch = 32
		for k := 0; k < batch; k++ {
			hreq.ID++
			var dec ctlplane.Decision
			admit += c.post("admit", hreq.ID, hreq, &dec)
			c.post("release", hreq.ID, map[string]int32{"id": hreq.ID}, nil)
			if !dec.Accepted {
				lb.failf("ctlplane http driver: admit refused (%s)", dec.Reason)
				return false
			}
		}
		httpUs = append(httpUs, float64(admit.Nanoseconds())/batch/1e3)
		d.Do(func() { d.Eng.RunUntil(d.Eng.Now() + 50*sim.Microsecond) })
		return true
	})
	lb.record("ctlplane.http.admit_us", httpUs)
	lb.set("ctlplane.http.overhead_us", lb.out["ctlplane.http.admit_us"].Value-lb.out["ctlplane.service.admit_us"].Value)
	d.Do(func() { d.Eng.RunUntil(d.Eng.Now() + sim.Millisecond) }) // a few sampling ticks fill the registry
	lb.perCall("ctlplane.http.metrics_ms", 1e6, 1, func() {
		resp, err := c.http.Get(srv.URL + "/metrics")
		if err != nil {
			lb.failf("ctlplane http driver: GET /metrics: %v", err)
			return
		}
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, resp.Body); err != nil || resp.StatusCode != 200 || buf.Len() == 0 {
			lb.failf("ctlplane http driver: GET /metrics: status %d, %d bytes, %v", resp.StatusCode, buf.Len(), err)
		}
		resp.Body.Close()
	})
	if c.failed > 0 {
		lb.failf("ctlplane http driver: %d of %d requests failed", c.failed, c.sent)
	}
	srv.Close()
	c.http.CloseIdleConnections()
	d.Stop()
}
