package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ufab/internal/audit"
	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
	"ufab/internal/workload"
)

// shardWorkers is fabric1k_sharded's worker count: one per CPU, capped at
// the fabric's eight pods.
func shardWorkers() int {
	return min(runtime.NumCPU(), 8)
}

// simRun is the state of one sim-workload repetition between set-up and
// collection.
type simRun struct {
	f       *vfabric.Fabric
	horizon sim.Duration
	reg     *telemetry.Registry
	log     *audit.Log
	// pairs are the message-workload pairs (nil on fabric1k_*).
	pairs []*rpcPair
	// sampleNs collects the wall time of each SampleRates tick.
	sampleNs []float64
}

// rpcPair is one VM-pair of the clos128_* workloads. slow is written only
// from completion callbacks, which run in the source host's context.
type rpcPair struct {
	msgs *workload.Messages
	slow stats.Samples
}

// runSim runs one repetition of a sim workload: build, register tenants,
// RunUntil(horizon), collect. Only RunUntil is inside JobS.
func runSim(name string, sc scale, seed int64, tr *tracer, layers bool, start time.Time) repResult {
	r := repResult{Attempted: 1, Exact: map[string]float64{}, Wall: map[string]float64{}}

	var run *simRun
	switch name {
	case wlFabricBacklog:
		run = setupFabric(sc, seed, 0, tr)
	case wlFabricSharded:
		run = setupFabric(sc, seed, shardWorkers(), tr)
	case wlRPC:
		run = setupRPC(sc, seed, rpcInstr{}, tr)
	case wlRPCTelemetry:
		run = setupRPC(sc, seed, rpcInstr{telemetry: true}, tr)
	case wlRPCAudit:
		run = setupRPC(sc, seed, rpcInstr{telemetry: true, audit: true}, tr)
	case wlRPCAudited:
		run = setupRPC(sc, seed, rpcInstr{telemetry: true, audit: true, flap: true}, tr)
	default:
		panic("bench: unknown sim workload " + name)
	}
	f := run.f

	m0 := readMem()
	sp := tr.begin("sim.run")
	t0 := time.Now()
	r.SetupS = t0.Sub(start).Seconds()
	cpu0 := cpuSeconds()
	f.Eng.RunUntil(run.horizon)
	r.JobS = time.Since(t0).Seconds()
	r.JobCPUS = cpuSeconds() - cpu0
	tr.end(sp)
	m1 := readMem()
	r.JobAllocMB = float64(m1.allocBytes-m0.allocBytes) / (1 << 20)
	r.LiveRSSMB = liveRSSMiB()

	sp = tr.begin("report.collect")
	es := f.Eng.(sim.StatsSource).Stats()
	var delivered, completed int64
	for _, fl := range f.Flows {
		delivered += fl.Pair.Delivered
	}
	var slow stats.Samples
	for _, p := range run.pairs {
		completed += p.msgs.Completed
		slow.AddAll(&p.slow)
	}
	p99 := 0.0
	if slow.Len() > 0 {
		p99 = slow.P(0.99)
	}
	r.Digest = digest{
		Events:          es.Processed,
		DeliveredBytes:  delivered,
		Completed:       completed,
		Drops:           f.Net.TotalDrops,
		SlowdownP99Bits: math.Float64bits(p99),
	}
	var probesSeen uint64
	for _, c := range f.Cores {
		probesSeen += c.ProbesSeenCount()
	}
	r.Exact["sim_goodput_gbps"] = float64(delivered) * 8 / run.horizon.Seconds() / 1e9
	r.Exact["sim_slowdown_p99"] = p99
	r.Exact["workload.messages_completed"] = float64(completed)
	r.Exact["sim.events"] = float64(es.Processed)
	r.Exact["dataplane.drops"] = float64(f.Net.TotalDrops)
	r.Exact["dataplane.max_queue_bytes"] = float64(f.MaxQueueBytes())
	r.Exact["ufabc.probes_seen"] = float64(probesSeen)
	r.Exact["ufabe.probe_overhead_pct"] = f.ProbeOverhead() * 100
	r.Exact["ufabe.migrations"] = float64(f.FaultStats().Migrations)

	// PeakPending is per heap, so it is exact only for one execution mode;
	// it is recorded with the wall-clock readings for that reason.
	r.Wall["sim.peak_pending"] = float64(es.PeakPending)
	r.Wall["sim.events_per_s"] = float64(es.Processed) / r.JobS
	r.Wall["sim.allocs_per_event"] = float64(m1.mallocs-m0.mallocs) / float64(es.Processed)
	r.Wall["sim.gc_pause_ms"] = float64(m1.pauseNs-m0.pauseNs) / 1e6
	r.Wall["sim_us_per_wall_s"] = run.horizon.Micros() / r.JobS
	collectShardHealth(&r, f)
	if len(run.sampleNs) > 0 {
		r.Wall["vfabric.sample_us"] = median(run.sampleNs) / 1e3
	}

	if name != wlRPCAudited && f.Net.TotalDrops != 0 {
		r.failf("%s: %d packets dropped on a fault-free workload", name, f.Net.TotalDrops)
	}
	if run.pairs != nil && completed == 0 {
		r.failf("%s: no message completed", name)
	}
	if delivered == 0 {
		r.failf("%s: no byte delivered", name)
	}
	if run.log != nil {
		findings := run.log.Findings()
		r.Exact["audit.findings_excused"] = float64(run.log.Excused())
		r.Exact["audit.findings_unexcused"] = float64(run.log.Unexcused())
		if n := run.log.Unexcused(); n != 0 {
			r.failf("%s: %d unexcused audit findings of %d (%v)", name, n, len(findings), run.log.UnexcusedKinds())
		}
	}
	if run.reg != nil {
		total, _ := run.reg.TraceTotals()
		r.Exact["telemetry.trace_events"] = float64(total)
		if layers {
			timeExports(&r, run.reg)
		}
	}
	tr.end(sp)
	if len(r.Checks) > 0 {
		r.Failed = 1
	}
	return r
}

// collectShardHealth folds Sharded.Health() into per-layer readings; a
// sequential engine has no shards and contributes nothing.
func collectShardHealth(r *repResult, f *vfabric.Fabric) {
	hs, ok := f.Eng.(sim.HealthSource)
	if !ok {
		return
	}
	var stalls, spins, seals, sealNs, ringPeak uint64
	for _, h := range hs.Health() {
		stalls += h.WindowStalls
		spins += h.SendSpins
		seals += h.Seals
		sealNs += h.SealNanos
		ringPeak = max(ringPeak, h.RingPeak)
	}
	if seals == 0 {
		return
	}
	r.Wall["sim.sharded.window_stalls_per_seal"] = float64(stalls) / float64(seals)
	r.Wall["sim.sharded.send_spins"] = float64(spins)
	r.Wall["sim.sharded.seal_us_mean"] = float64(sealNs) / float64(seals) / 1e3
	r.Wall["sim.sharded.ring_peak"] = float64(ringPeak)
}

// timeExports times the three exporters on the audited run's registry.
func timeExports(r *repResult, reg *telemetry.Registry) {
	t0 := time.Now()
	snap := reg.Snapshot()
	r.Wall["telemetry.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	var buf bytes.Buffer
	t0 = time.Now()
	if err := snap.WriteOpenMetrics(&buf); err != nil {
		r.failf("telemetry: WriteOpenMetrics: %v", err)
	}
	r.Wall["telemetry.openmetrics_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	buf.Reset()
	t0 = time.Now()
	if err := reg.WritePerfettoJSON(&buf); err != nil {
		r.failf("telemetry: WritePerfettoJSON: %v", err)
	}
	r.Wall["telemetry.perfetto_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
}

// setupFabric builds the fabric1k_* input: the 1024-host Clos, FabricVFs
// multi-VM tenants (host i joins VF i mod FabricVFs + 1, 1 Gb/s, class 0)
// and one backlogged pair per host to the host half the fabric away, so
// every flow leaves its pod.
func setupFabric(sc scale, seed int64, shards int, tr *tracer) *simRun {
	sp := tr.begin("topo.build")
	cl := topo.NewClos(sc.Fabric)
	tr.end(sp)

	sp = tr.begin("vfabric.build")
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Cfg: vfabric.Config{Seed: seed}, Shards: shards})
	if err != nil {
		panic(fmt.Sprintf("bench: vfabric.Build: %v", err))
	}
	tr.end(sp)

	sp = tr.begin("vfabric.tenants")
	vfs := make([]*vfabric.VF, sc.FabricVFs)
	for i := range vfs {
		s := tr.begin("vfabric.add_vf")
		vfs[i] = f.AddVF(int32(i+1), 1e9, 0)
		tr.end(s)
	}
	n := len(cl.Hosts)
	for i, src := range cl.Hosts {
		s := tr.begin("vfabric.add_flow")
		fl := f.AddFlow(vfs[i%len(vfs)], src, cl.Hosts[(i+n/2)%n], 0)
		fl.Buffer.Add(1 << 40)
		tr.end(s)
	}
	tr.end(sp)
	return &simRun{f: f, horizon: sc.FabricHorizon}
}

// rpcInstr selects what clos128_rpc is instrumented with. The audited
// workload turns everything on; the two steps in between exist only for
// the interleaved overhead pairs of the layer run.
type rpcInstr struct {
	// telemetry attaches a registry with the flight recorder and samples
	// every 250 µs; audit adds the online auditor; flap adds a three-cycle
	// flap of the first agg→core link.
	telemetry, audit, flap bool
}

// The overhead pairs' intermediate variants of clos128_rpc. They are not
// benchmark workloads: only child processes of the layer run see them.
const (
	wlRPCTelemetry = "clos128_rpc+telemetry"
	wlRPCAudit     = "clos128_rpc+telemetry+audit"
)

func isOverheadVariant(name string) bool { return name == wlRPCTelemetry || name == wlRPCAudit }

// rpcPairsPerHost is how many VM-pairs each clos128_* host sources.
const rpcPairsPerHost = 8

// rpcPairBps is both the guarantee and the offered load of each pair.
const rpcPairBps = 125e6

// setupRPC builds the clos128_* input: a k-ary fat tree, eight pairs per
// host to seeded random destinations, pair k of host i in VF
// k*(RPCVFs/8) + i mod (RPCVFs/8) + 1, and open-loop Poisson arrivals of
// key-value-sized messages on each pair until 75 % of the horizon.
func setupRPC(sc scale, seed int64, in rpcInstr, tr *tracer) *simRun {
	sp := tr.begin("topo.build")
	cl := topo.FatTree(sc.RPCK, topo.Gbps(10), sim.Microsecond)
	tr.end(sp)

	run := &simRun{horizon: sc.RPCHorizon}
	cfg := vfabric.Config{Seed: seed}
	if in.telemetry {
		run.reg = telemetry.New()
		run.reg.EnableRecorder(0)
		cfg.Telemetry = run.reg
	}
	if in.audit {
		run.log = &audit.Log{}
		cfg.Audit = &audit.Config{Log: run.log}
	}
	sp = tr.begin("vfabric.build")
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Cfg: cfg})
	if err != nil {
		panic(fmt.Sprintf("bench: vfabric.Build: %v", err))
	}
	run.f = f
	tr.end(sp)

	sp = tr.begin("vfabric.tenants")
	vfs := make([]*vfabric.VF, sc.RPCVFs)
	for i := range vfs {
		s := tr.begin("vfabric.add_vf")
		vfs[i] = f.AddVF(int32(i+1), rpcPairBps, 0)
		tr.end(s)
	}
	dist := workload.KeyValue()
	offsets := rand.New(rand.NewSource(seed + 13))
	n := len(cl.Hosts)
	group := sc.RPCVFs / rpcPairsPerHost
	stopAt := run.horizon * 3 / 4
	for i, src := range cl.Hosts {
		for k := 0; k < rpcPairsPerHost; k++ {
			dst := cl.Hosts[(i+1+offsets.Intn(n-1))%n]
			p := &rpcPair{msgs: &workload.Messages{Sharing: true}}
			p.msgs.Observe(func(m workload.Message, fct sim.Duration) {
				s := tr.begin("workload.complete")
				p.slow.Add(stats.Slowdown(fct, int(m.Size), rpcPairBps))
				tr.end(s)
			})
			s := tr.begin("vfabric.add_flow")
			f.AddFlowDemand(vfs[k*group+i%group], src, dst, 0, p.msgs)
			tr.end(s)
			run.pairs = append(run.pairs, p)

			sched := f.HostScheduler(src)
			rng := rand.New(rand.NewSource(seed + int64(i*rpcPairsPerHost+k)*7919))
			stop := workload.Poisson(sched, rng, dist, rpcPairBps, func(size int64, now sim.Time) {
				s := tr.begin("workload.arrival")
				p.msgs.Send(size, now)
				tr.end(s)
			})
			sched.At(stopAt, stop)
		}
	}
	f.StartCoreCleanup()
	if in.telemetry {
		// The harness's own sampler: StartSampling(250 µs) with each
		// SampleRates (telemetry flush + audit tick) timed.
		f.Eng.Every(250*sim.Microsecond, func() {
			s := tr.begin("vfabric.sample")
			t0 := time.Now()
			f.SampleRates()
			run.sampleNs = append(run.sampleNs, float64(time.Since(t0).Nanoseconds()))
			tr.end(s)
		})
	}
	if in.flap {
		h := run.horizon
		flap := chaos.New("flap").Flap(h/4, firstAggToCoreLink(cl.Graph), true, 3, h/8, h/32)
		chaos.Inject(f, flap)
	}
	tr.end(sp)
	return run
}

// firstAggToCoreLink returns the lowest-numbered link from an aggregation
// switch up to a core switch.
func firstAggToCoreLink(g *topo.Graph) topo.LinkID {
	for i := range g.Links {
		l := &g.Links[i]
		if g.Node(l.Src).Tier == topo.TierAgg && g.Node(l.Dst).Tier == topo.TierCore {
			return l.ID
		}
	}
	panic("bench: topology has no agg→core link")
}
