package experiments

import "testing"

// shardIdentityIDs are the experiments held to worker-count identity
// under the race detector. shardsim is the adversarial case — its
// workload drivers schedule inside host shards, so every arrival crosses
// the conservative-lookahead machinery — and flap adds chaos fault
// injection on top of the partitioned dataplane.
var shardIdentityIDs = []string{"shardsim", "flap"}

// runWithWorkers executes one experiment fully instrumented (registry,
// flight recorder, auditor) under the given worker count and returns
// the three exported byte streams: rendered report, registry snapshot
// JSON, and the canonically merged trace JSONL.
func runWithWorkers(t *testing.T, id string, seed int64, workers int) (string, string, string) {
	t.Helper()
	e := Find(id)
	if e == nil {
		t.Fatalf("unknown experiment %q", id)
	}
	r := e.Run(Options{Quick: true, Seed: seed, Telemetry: true, Audit: true, Shards: workers})
	snap, trace := snapshotAndTrace(t, r)
	return r.String(), snap, trace
}

// TestShardIdentity is the CI gate for the one-engine claim: the pod
// shards executed by 1 or 4 worker goroutines must reproduce, byte for
// byte, what the same loop produces running them inline (0 workers) —
// rendered report, metrics snapshot, and merged event trace — across
// several seeds. Run under -race it doubles as the data-race gate for
// the cross-shard handoff path.
func TestShardIdentity(t *testing.T) {
	for _, id := range shardIdentityIDs {
		for _, seed := range []int64{1, 2, 3} {
			refRep, refSnap, refTrace := runWithWorkers(t, id, seed, 0)
			if refTrace == "" {
				t.Fatalf("%s seed %d: empty reference trace — recorder saw no events", id, seed)
			}
			for _, workers := range []int{1, 4} {
				rep, snap, trace := runWithWorkers(t, id, seed, workers)
				if rep != refRep {
					t.Errorf("%s seed %d: report differs between 0 and %d workers:\n--- 0 workers\n%s\n--- %d workers\n%s",
						id, seed, workers, refRep, workers, rep)
				}
				if snap != refSnap {
					t.Errorf("%s seed %d: registry snapshot differs between 0 and %d workers", id, seed, workers)
				}
				if trace != refTrace {
					t.Errorf("%s seed %d: merged trace differs between 0 and %d workers", id, seed, workers)
				}
			}
		}
	}
}
