package ufab

import (
	"fmt"
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
// — runs it for horizon and returns what Engine.RunUntil allocates per
// simulated event, set-up excluded (the quotient `make profile` prints for a
// benchmark workload), and how many events it simulated. instrumented turns
// on what clos128_rpc_audited turns on: the registry with its flight
// recorders, the auditor, 250 µs sampling.
func runLoopBytesPerEvent(t *testing.T, instrumented bool, horizon sim.Duration) (float64, int64) {
	t.Helper()
	const (
		pairsPerHost = 8
		pairBps      = 125e6
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
	f.Eng.RunUntil(sim.Time(horizon))
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
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(events), int64(events)
}

// runLoopHorizon is the horizon TestRunLoopBytesPerEvent runs, and the
// shorter one of TestRunLoopBytesFlatInHorizon.
const runLoopHorizon = 1500 * sim.Microsecond

// TestRunLoopBytesPerEvent holds in tier-1 what the benchmark's job_alloc_mb
// measures: the run loop recycles its packets, probe buffers, timer records,
// register cells and trace chunks instead of making them, so a simulated
// event costs a few bytes — first contacts (a link's register cells, a
// path's hop storage), the engine heap and the egress rings growing to their
// high-water marks, timer records and probe buffers up to the most ever
// outstanding — and, instrumented, the variable-length record (~20 bytes)
// of each trace event it retains and little more. The bare ceiling is about twice what the run
// measures: 4.9 bytes per event; 5.6 while every ack recorded its RTT, a
// timer was a closure, a probe regrew a buffer and a receiver re-made its
// record of a pair that woke again and of its VF's requests; 8.5 while a register cell held a whole
// bucket, a path copied every probe response and a packet carried 32 bytes
// of padding; 52 before packets were pooled and probes flipped in place. The
// instrumented one sits above what the run measures (10.8) and below what it
// measured while a retained event took a 56-byte slot and a histogram a
// dense 449-bucket array (17.1), let alone while a retained event took 88
// string-bearing bytes and the audit feed copied every ring's tail (29.5).
func TestRunLoopBytesPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name         string
		instrumented bool
		ceiling      float64
	}{
		{"bare", false, 10},
		{"telemetry, audit and sampling on", true, 14},
	} {
		if got, _ := runLoopBytesPerEvent(t, tc.instrumented, runLoopHorizon); got > tc.ceiling {
			t.Errorf("%s: RunUntil allocated %.1f bytes per event, want <= %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.1f bytes per event (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
	}
}

// TestRunLoopBytesFlatInHorizon: the bare clos128_rpc shape run four times
// as long allocates at most 10 % more under RunUntil. What a run allocates is
// its warm-up to high-water marks — packets, probe buffers, timer records,
// register cells, the heap — not a cost per ack, probe or message, as a
// μFAB edge keeps a fixed context per VM-pair however long the pair has run.
// Measured: 4.69 → 4.80 MiB, 1.02× (5.29 → 9.41 MiB, 1.78×, while every ack
// recorded its RTT, a probe regrew a buffer, each probe, idle and RTO check
// was a fresh closure, and a receiver re-made its record of a pair that woke
// again and its token tick the request slice of a VF that did). The instrumented shape is not gated: its flight-recorder rings and
// sample series retain what they record, so its bytes grow with the horizon
// by design (1.73×; 1.93× before).
func TestRunLoopBytesFlatInHorizon(t *testing.T) {
	short, shortEvents := runLoopBytesPerEvent(t, false, runLoopHorizon)
	long, longEvents := runLoopBytesPerEvent(t, false, 4*runLoopHorizon)
	shortB, longB := short*float64(shortEvents), long*float64(longEvents)
	ratio := longB / shortB
	msg := fmt.Sprintf("%v: %.2f MiB over %d events; %v: %.2f MiB over %d events; %.2f×",
		runLoopHorizon, shortB/(1<<20), shortEvents, 4*runLoopHorizon, longB/(1<<20), longEvents, ratio)
	if ratio > 1.10 {
		t.Errorf("RunUntil's bytes grow with the horizon: %s, want <= 1.10×", msg)
	} else {
		t.Log(msg)
	}
}
