package experiments

// The partitioned-engine exercise: a pod-partitioned Clos (folded FatTree)
// carrying per-host Poisson message workloads whose drivers schedule
// inside their host's shard, so worker goroutines actually run the pods
// concurrently instead of serializing on coordinator barriers.
// The experiment's metrics are defined to be bit-identical for every
// Options.Shards value — `check -shards N` and TestShardIdentity hold it
// to that.

import (
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// shardSim runs a cross-pod permutation message workload on μFAB over a
// pod-sharded Clos and reports throughput, slowdown and overhead.
func shardSim(o Options) *Report {
	r := newReport("shardsim", "sharded parallel-in-time core: cross-pod workload identity")
	pods := 4
	dur := 8 * sim.Millisecond
	if o.Quick {
		pods = 2
		dur = 3 * sim.Millisecond
	}
	cl := topo.NewClos(topo.ClosConfig{Pods: pods, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4,
		HostsPerToR: 4, LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
	d := deploy(schemeUFAB, o, r, cl.Graph)

	type pairState struct {
		fh   *flow
		msgs *workload.Messages
		// slow is written only from the source host's shard (completion
		// callbacks run there); merged in pair order after the horizon.
		slow stats.Samples
	}
	dist := workload.WebSearch()
	hosts := cl.Hosts
	// Destinations half the host list away: every flow leaves its pod, so
	// all traffic crosses shard boundaries through the lookahead window.
	stride := len(hosts) / 2
	const guarantee = 1e9
	const load = 2e9
	pairs := make([]*pairState, 0, len(hosts))
	for i, src := range hosts {
		dst := hosts[(i+stride)%len(hosts)]
		msgs, fh := d.addMessageFlow(int32(i+1), guarantee, src, dst)
		msgs.Sharing = true
		ps := &pairState{fh: fh, msgs: msgs}
		pairs = append(pairs, ps)
		ps.msgs.Observe(func(m workload.Message, fct sim.Duration) {
			ps.slow.Add(stats.Slowdown(fct, int(m.Size), guarantee))
		})
		// The workload driver lives in the host's shard: arrivals are
		// simulated events of that shard, not coordinator barriers.
		sched := d.hostScheduler(src)
		stop := workload.Poisson(sched, stats.NewRand(o.Seed+int64(i)*7919), dist, load,
			func(size int64, now sim.Time) { ps.msgs.Send(size, now) })
		sched.At(dur*3/4, stop)
	}
	stopSampling := d.startSampling(500 * sim.Microsecond)
	d.eng.RunUntil(dur)
	stopSampling()
	d.mergeTenantFCT()

	var slow stats.Samples
	var completed, delivered int64
	for _, ps := range pairs {
		slow.AddAll(&ps.slow)
		completed += ps.msgs.Completed
		delivered += *ps.fh.delivered
	}
	net := d.net
	shards := net.Shards()
	r.Printf("clos pods=%d hosts=%d logical shards=%d", pods, len(hosts), shards)
	r.Printf("messages completed %d | delivered %.1f MB | slowdown mean %.2f p99 %.2f | probe overhead %.3f%% | drops %d",
		completed, float64(delivered)/1e6, slow.Mean(), slow.P(0.99),
		d.uf.ProbeOverhead()*100, net.TotalDrops)
	r.metric("shardsim.logical_shards", float64(shards))
	r.metric("shardsim.completed", float64(completed))
	r.metric("shardsim.delivered_mb", float64(delivered)/1e6)
	r.metric("shardsim.slowdown_mean", slow.Mean())
	r.metric("shardsim.slowdown_p99", slow.P(0.99))
	r.metric("shardsim.probe_overhead_pct", d.uf.ProbeOverhead()*100)
	r.metric("shardsim.drops", float64(net.TotalDrops))
	return r
}
