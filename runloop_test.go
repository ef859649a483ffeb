package ufab

import (
	"math/rand"
	"runtime"
	"testing"

	"ufab/internal/audit"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
	"ufab/internal/workload"
)

// runLoopBytesPerEvent builds the benchmark's clos128_rpc shape at test scale
// — a k=8 fat tree, eight mostly idle pairs per host to seeded random
// destinations, open-loop Poisson key-value messages at each pair's guarantee
// — and returns what Engine.RunUntil allocates per simulated event, set-up
// excluded: the quotient `make profile` prints for a benchmark workload.
// instrumented turns on what clos128_rpc_audited turns on: the registry with
// its flight recorders, the auditor, 250 µs sampling.
func runLoopBytesPerEvent(t *testing.T, instrumented bool) float64 {
	t.Helper()
	const (
		pairsPerHost = 8
		pairBps      = 125e6
		horizon      = 1500 * sim.Microsecond
	)
	cl := topo.FatTree(8, topo.Gbps(10), sim.Microsecond)
	cfg := vfabric.Config{Seed: 1}
	if instrumented {
		cfg.Telemetry = telemetry.New()
		cfg.Telemetry.EnableRecorder(0)
		cfg.Audit = &audit.Config{}
	}
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	vfs := make([]*vfabric.VF, 128)
	for i := range vfs {
		vfs[i] = f.AddVF(int32(i+1), pairBps, 0)
	}
	dist := workload.KeyValue()
	offsets := rand.New(rand.NewSource(14))
	n, group := len(cl.Hosts), len(vfs)/pairsPerHost
	var msgs []*workload.Messages
	for i, src := range cl.Hosts {
		for k := 0; k < pairsPerHost; k++ {
			m := &workload.Messages{Sharing: true}
			msgs = append(msgs, m)
			f.AddFlowDemand(vfs[k*group+i%group], src, cl.Hosts[(i+1+offsets.Intn(n-1))%n], 0, m)
			rng := rand.New(rand.NewSource(int64(i*pairsPerHost+k) * 7919))
			workload.Poisson(f.HostScheduler(src), rng, dist, pairBps, func(size int64, now sim.Time) { m.Send(size, now) })
		}
	}
	f.StartCoreCleanup()
	if instrumented {
		f.StartSampling(250 * sim.Microsecond)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Eng.RunUntil(horizon)
	runtime.ReadMemStats(&after)

	events := f.Eng.(sim.StatsSource).Stats().Processed
	var completed int64
	for _, m := range msgs {
		completed += m.Completed
	}
	if events < 300_000 || completed < 3_000 || f.Net.TotalDrops != 0 {
		t.Fatalf("the run is not the workload it claims to be: %d events, %d messages completed, %d drops", events, completed, f.Net.TotalDrops)
	}
	if log := f.AuditLog(); log != nil && (log.Unexcused() != 0 || log.Dropped() != 0) {
		t.Fatalf("audit: %d unexcused findings, %d dropped", log.Unexcused(), log.Dropped())
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
}

// TestRunLoopBytesPerEvent holds in tier-1 what the benchmark's job_alloc_mb
// measures: the run loop recycles its packets, probe buffers, register cells
// and trace chunks instead of making them, so a simulated event costs a few
// bytes — RTT samples, first contacts, heap growth to the high-water mark —
// and, instrumented, the 56-byte slot of each trace event it retains and
// little more. The bare ceiling is about twice what the run measures (5.6
// bytes per event; 8.5 while a register cell held a whole bucket, a path
// copied every probe response and a packet carried 32 bytes of padding; 52
// before packets were pooled and probes flipped in place). The instrumented
// one sits above what the run measures (17.7) and below what it measured
// before those three changes (20.7), let alone while a retained event took
// 88 string-bearing bytes and the audit feed copied every ring's tail (29.5).
func TestRunLoopBytesPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name         string
		instrumented bool
		ceiling      float64
	}{
		{"bare", false, 12},
		{"telemetry, audit and sampling on", true, 20},
	} {
		if got := runLoopBytesPerEvent(t, tc.instrumented); got > tc.ceiling {
			t.Errorf("%s: RunUntil allocated %.1f bytes per event, want <= %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.1f bytes per event (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
	}
}
