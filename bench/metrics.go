package main

// The benchmark's metric tables. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; metrics_test.go holds
// the two in step.

// metricDef describes one metric: Better is "lower" or "higher"; Bound is
// the share of the parent's median an end-to-end metric may worsen by
// before a change counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// benchmarkRunSeconds is how long one benchmark run measures. The driver
// makes 4 + 22 x 5 = 114 runs inside 3420 s, builds included, so a run has
// under 28 s for everything; 22 s of measuring leaves room for process
// start-up and for the per-layer drivers' fixed costs on a slower host.
const benchmarkRunSeconds = 22

// endToEnd are the metrics every workload reports from its untraced
// repetitions, each the median over the repetitions of a run.
var endToEnd = []metricDef{
	// the repetition's entry into main → first timed call, on the child's
	// own clock: topology and fabric build, VF/pair registration; daemon
	// construction, store open and listener.
	{"setup_s", "s", "lower", 0.25},
	// wall time of the workload's fixed job: Eng.RunUntil(horizon) on the
	// sim workloads, the closed request loop (simulated-time quanta
	// included) on ctl_churn. Not events/s: a change that delivers the
	// same simulation with fewer events must win.
	{"job_wall_s", "s", "lower", 0.25},
	// user+system CPU the process burned inside the timed section; it
	// parts from job_wall_s where the sharded core trades CPU for wall.
	{"job_cpu_s", "s", "lower", 0.25},
	// heap allocated inside the timed section (runtime TotalAlloc). It
	// repeats within a fraction of a percent, so it is the tight gate on a
	// host whose timings swing by 10-20 %: garbage per event is what the
	// collector is paid for.
	{"job_alloc_mb", "MiB", "lower", 0.05},
	// resident set when the timed section ends, once the collector has
	// returned every free page: what the run retains (pending events,
	// packets in flight, samples, recorder ring, tenant state). The
	// high-water mark swings 235-365 MiB on one input with the collector's
	// timing, so it is recorded per layer (peak_rss_mb), not gated.
	{"live_rss_mb", "MiB", "lower", 0.10},
}

// workloadWhy is the one-line rationale of each workload. What it says
// about where the CPU goes is read off the profiles in README.md ("Where
// the CPU goes"), taken at the shipped sizes at the commit that defined
// the benchmark.
var workloadWhy = map[string]string{
	wlFabricBacklog: "1024-host Clos, 128 multi-VM tenants, backlogged cross-pod pairs, sequential engine: the headline fabric; CPU splits between event heap, WFQ pick, dataplane hops and alloc/GC, about a quarter each",
	wlFabricSharded: "the same input on the sharded parallel-in-time core (one worker per CPU): windows, SPSC rings, barriers; statistics must equal fabric1k_backlog's",
	wlRPC:           "128-host fat tree, 1024 mostly idle pairs, open-loop Poisson key-value messages: pairs wake, probe and go idle; more heap, token, probe and bloom work, less dataplane and GC than fabric1k_backlog",
	wlRPCAudited:    "clos128_rpc with telemetry, flight recorder, auditor, 250 us sampling and a link flap: the instrumented path (sampling ticks are an eighth of its CPU); the disabled path is clos128_rpc",
	wlCtlChurn:      "closed loop, one keep-alive client over loopback HTTP: evaluate/admit/release through daemon, service, policy, ledger 2PC, store WAL and fabric materialiser; half its CPU is the simulated quanta",
}

// perLayer are the per-layer metrics a traced benchmark run reports, in
// BENCHMARK.json order. Their sources:
//
//   - "run": read off the workload's own repetitions (counts, simulated
//     statistics, in-run wall readings); zero where the workload does not
//     exercise the layer (no shards on a sequential engine, no admissions
//     on a sim workload).
//   - "span": self time per span name from the traced repetition, in ms.
//   - "micro": the workload-independent drivers of layers.go.
var perLayer = []metricDef{
	// run: simulator
	{"sim_us_per_wall_s", "us/s", "higher", 0},
	{"sim_goodput_gbps", "Gb/s", "higher", 0},
	{"sim_slowdown_p99", "ratio", "lower", 0},
	{"workload.messages_completed", "count", "higher", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.peak_pending", "count", "lower", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.gc_pause_ms", "ms", "lower", 0},
	{"peak_rss_mb", "MiB", "lower", 0},
	{"sim.sharded.speedup_x", "ratio", "higher", 0},
	{"sim.sharded.window_stalls_per_seal", "count", "lower", 0},
	{"sim.sharded.send_spins", "count", "lower", 0},
	{"sim.sharded.seal_us_mean", "us", "lower", 0},
	{"sim.sharded.ring_peak", "count", "lower", 0},
	{"dataplane.drops", "count", "lower", 0},
	{"dataplane.max_queue_bytes", "bytes", "lower", 0},
	{"ufabc.probes_seen", "count", "lower", 0},
	{"ufabe.probe_overhead_pct", "%", "lower", 0},
	{"ufabe.migrations", "count", "lower", 0},
	{"vfabric.sample_us", "us", "lower", 0},
	{"telemetry.trace_events", "count", "lower", 0},
	{"telemetry.snapshot_ms", "ms", "lower", 0},
	{"telemetry.openmetrics_ms", "ms", "lower", 0},
	{"telemetry.perfetto_ms", "ms", "lower", 0},
	{"audit.findings_excused", "count", "lower", 0},
	{"audit.findings_unexcused", "count", "lower", 0},
	// run: control plane
	{"decisions_per_s", "1/s", "higher", 0},
	{"admit_p50_us", "us", "lower", 0},
	{"admit_p99_us", "us", "lower", 0},
	{"ctlplane.http.admit_p999_us", "us", "lower", 0},
	{"ctlplane.daemon.advance_ms", "ms", "lower", 0},
	{"ctlplane.daemon.sim_share_pct", "%", "lower", 0},
	{"ctlplane.admits", "count", "higher", 0},
	{"ctlplane.rejects", "count", "lower", 0},
	{"ctlplane.releases", "count", "higher", 0},
	// run: harness
	{"trace_overhead_pct", "%", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"host.calib_drift_pct", "%", "lower", 0},
	// span: self time per repetition
	{"self_ms.topo.build", "ms", "lower", 0},
	{"self_ms.vfabric.build", "ms", "lower", 0},
	{"self_ms.vfabric.tenants", "ms", "lower", 0},
	{"self_ms.vfabric.add_vf", "ms", "lower", 0},
	{"self_ms.vfabric.add_flow", "ms", "lower", 0},
	{"self_ms.sim.run", "ms", "lower", 0},
	{"self_ms.workload.arrival", "ms", "lower", 0},
	{"self_ms.workload.complete", "ms", "lower", 0},
	{"self_ms.vfabric.sample", "ms", "lower", 0},
	{"self_ms.report.collect", "ms", "lower", 0},
	{"self_ms.ctlplane.new_daemon", "ms", "lower", 0},
	{"self_ms.http.listen", "ms", "lower", 0},
	{"self_ms.http.evaluate", "ms", "lower", 0},
	{"self_ms.http.admit", "ms", "lower", 0},
	{"self_ms.http.release", "ms", "lower", 0},
	{"self_ms.daemon.advance", "ms", "lower", 0},
	{"self_ms.svc.verify", "ms", "lower", 0},
	{"self_ms.store.reopen", "ms", "lower", 0},
	// micro: one driver per layer
	{"sim.sched_fire_ns", "ns", "lower", 0},
	{"sim.cancel_ns", "ns", "lower", 0},
	{"sim.hold_ns_d1k", "ns", "lower", 0},
	{"sim.hold_ns_d64k", "ns", "lower", 0},
	{"sim.hold_allocs", "count", "lower", 0},
	{"topo.clos1k_build_ms", "ms", "lower", 0},
	{"topo.paths_cold_us", "us", "lower", 0},
	{"topo.paths_warm_ns", "ns", "lower", 0},
	{"dataplane.hop_ns", "ns", "lower", 0},
	{"dataplane.hop_ns_incast", "ns", "lower", 0},
	{"dataplane.hop_allocs", "count", "lower", 0},
	{"dataplane.events_per_hop", "count", "lower", 0},
	{"probe.encode_ns", "ns", "lower", 0},
	{"probe.decode_ns", "ns", "lower", 0},
	{"probe.decode_allocs", "count", "lower", 0},
	{"probe.append_hop_ns", "ns", "lower", 0},
	{"bloom.update_ns", "ns", "lower", 0},
	{"ufabc.on_forward_probe_ns", "ns", "lower", 0},
	{"ufabc.on_forward_data_ns", "ns", "lower", 0},
	{"ufabc.on_forward_allocs", "count", "lower", 0},
	{"ufabe.edge_pkt_ns", "ns", "lower", 0},
	{"ufabe.edge_pkt_ns_vfs1k", "ns", "lower", 0},
	{"ufabe.short_msg_us", "us", "lower", 0},
	{"vfabric.build_ms", "ms", "lower", 0},
	{"vfabric.add_vf_us", "us", "lower", 0},
	{"vfabric.add_flow_us", "us", "lower", 0},
	{"vfabric.add_tenant_us", "us", "lower", 0},
	{"vfabric.remove_tenant_us", "us", "lower", 0},
	{"telemetry.counter_disabled_ns", "ns", "lower", 0},
	{"telemetry.counter_enabled_ns", "ns", "lower", 0},
	{"telemetry.record_ns", "ns", "lower", 0},
	{"telemetry.hist_observe_ns", "ns", "lower", 0},
	{"audit.tick_us", "us", "lower", 0},
	{"audit.observe_event_ns", "ns", "lower", 0},
	{"placement.ledger.commit_release_ns", "ns", "lower", 0},
	{"placement.ledger.verify_us", "us", "lower", 0},
	{"placement.policy.place_ns.first-fit", "ns", "lower", 0},
	{"placement.policy.place_ns.spread", "ns", "lower", 0},
	{"placement.policy.place_ns.subscription-aware", "ns", "lower", 0},
	{"ctlplane.ledger.admit_release_ns", "ns", "lower", 0},
	{"ctlplane.ledger.evaluate_ns", "ns", "lower", 0},
	{"ctlplane.store.put_ns", "ns", "lower", 0},
	{"ctlplane.store.put_bytes", "bytes", "lower", 0},
	{"ctlplane.store.snapshot_ms", "ms", "lower", 0},
	{"ctlplane.store.replay_ms", "ms", "lower", 0},
	{"ctlplane.service.admit_us", "us", "lower", 0},
	{"ctlplane.service.release_us", "us", "lower", 0},
	{"ctlplane.service.recover_ms", "ms", "lower", 0},
	{"ctlplane.http.admit_us", "us", "lower", 0},
	{"ctlplane.http.overhead_us", "us", "lower", 0},
	{"ctlplane.http.metrics_ms", "ms", "lower", 0},
}

// layerOnly are the per-layer metrics that only the layer run
// (`-layers`) measures: they take minutes, which a benchmark run does not
// have.
var layerOnly = []metricDef{
	{"telemetry.overhead_pct", "%", "lower", 0},
	{"audit.overhead_pct", "%", "lower", 0},
	{"experiments.golden_wall_s", "s", "lower", 0},
	{"experiments.golden_drifts", "count", "lower", 0},
	// bookkeeping the set prints beside the metrics
	{"ctlplane.decisions", "count", "higher", 0},
	{"ctlplane.http.admit_samples", "count", "higher", 0},
}

// unitOf returns the unit of a metric in any of the tables ("" if unknown).
func unitOf(name string) string {
	for _, tbl := range [][]metricDef{endToEnd, perLayer, layerOnly} {
		for _, m := range tbl {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
