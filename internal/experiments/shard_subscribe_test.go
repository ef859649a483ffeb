package experiments

import (
	"testing"

	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// TestShardedSubscribeLive holds Recorder.Subscribe to its contract under
// the parallel-in-time core: live subscribers attached to every ring of a
// sharded run (base + one per logical shard) see exactly the events each
// ring records — including events the deliberately tiny rings evict under
// wraparound — and TraceTotals accounts the evictions exactly. Run under
// -race (the Makefile/CI race rows include it) this doubles as the
// data-race gate for subscriber callbacks firing on shard-worker
// goroutines.
func TestShardedSubscribeLive(t *testing.T) {
	const pods = 2
	cl := topo.NewClos(topo.ClosConfig{Pods: pods, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4,
		HostsPerToR: 2, LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
	reg := telemetry.New()
	reg.EnableRecorder(0)
	// Pre-size the per-shard rings far below the run's event volume
	// (Build's own EnableShardRecorders call is idempotent on the same
	// count): the rings must wrap, so subscribers prove they outlive
	// eviction — the property the event-driven reconciler depends on.
	const ringCap = 64
	reg.EnableShardRecorders(pods, ringCap)

	f, err := vfabric.Build(vfabric.BuildOptions{
		Graph: cl.Graph, Cfg: vfabric.Config{Seed: 1, Telemetry: reg}, Shards: pods,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]*telemetry.Recorder{reg.Recorder()}, reg.ShardRecorders()...)
	if len(recs) != pods+1 {
		t.Fatalf("got %d recorders, want base + %d shard rings", len(recs), pods)
	}
	// One counter per ring: each ring's subscriber fires only on its
	// shard-owner goroutine, so the per-index writes never race.
	counts := make([]uint64, len(recs))
	pre := make([]uint64, len(recs))
	for i, rec := range recs {
		i := i
		pre[i] = rec.Total()
		rec.Subscribe(func(telemetry.Event) { counts[i]++ })
	}

	// Cross-pod permutation of backlogged guaranteed flows: every probe
	// crosses the shard cut, so both shard rings fill from live workers.
	stride := len(cl.Hosts) / 2
	for i, src := range cl.Hosts {
		vf := f.AddVF(int32(i+1), 1e9, 0)
		fl := f.AddFlow(vf, src, cl.Hosts[(i+stride)%len(cl.Hosts)], 0)
		fl.Buffer.Add(1 << 30)
	}
	f.Eng.RunUntil(2 * sim.Millisecond)

	total, dropped := reg.TraceTotals()
	var wantTotal, wantDropped uint64
	wrapped := 0
	for i, rec := range recs {
		wantTotal += rec.Total()
		evicted := rec.Total() - uint64(rec.Len())
		wantDropped += evicted
		if got, want := counts[i], rec.Total()-pre[i]; got != want {
			t.Errorf("ring %d: subscriber saw %d events, recorder counted %d", i, got, want)
		}
		if evicted > 0 {
			wrapped++
			if counts[i] <= uint64(rec.Len()) {
				t.Errorf("ring %d wrapped (%d evicted) but subscriber saw only %d <= retained %d",
					i, evicted, counts[i], rec.Len())
			}
		}
	}
	if wrapped == 0 {
		t.Fatalf("no ring wrapped (cap %d, total %d): the eviction path went unexercised", ringCap, total)
	}
	if total != wantTotal || dropped != wantDropped {
		t.Errorf("TraceTotals = (%d, %d), want (%d, %d) from per-ring totals",
			total, dropped, wantTotal, wantDropped)
	}
	if dropped == 0 {
		t.Error("drop accounting shows zero despite wrapped rings")
	}
}
