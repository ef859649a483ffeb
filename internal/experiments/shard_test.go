package experiments

import "testing"

// shardIdentityIDs are the experiments held to worker-count identity
// under the race detector. Each must deploy more than one logical shard —
// a fabric built by vfabric.New (deployPlain) ignores Options.Shards and a
// single shard always runs inline, so their worker cells are equal by
// construction. shardsim is the adversarial case: its workload drivers
// schedule inside host shards, so every arrival crosses the
// conservative-lookahead machinery. Fault injection under workers is held
// by fuzz.Executor.Replay's 0-against-4 differential, not here.
var shardIdentityIDs = []string{"shardsim"}

// shardIdentityOptions is a fully instrumented run (registry, flight
// recorder, auditor) with the given number of workers on the pod shards.
func shardIdentityOptions(seed int64, workers int) Options {
	return Options{Quick: true, Seed: seed, Telemetry: true, Audit: true, Shards: workers}
}

// TestShardIdentity is the CI gate for the one-engine claim: the pod
// shards executed by 1 or 4 worker goroutines must reproduce, byte for
// byte, what the same loop produces running them inline (0 workers) —
// rendered report, metrics snapshot, and merged event trace — across
// several seeds. Run under -race it doubles as the data-race gate for
// the cross-shard handoff path.
func TestShardIdentity(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		ref := batch(t, shardIdentityIDs, shardIdentityOptions(seed, 0), 0)
		for _, id := range shardIdentityIDs {
			if n := len(ref[id].Reg.ShardRecorders()); n < 2 {
				t.Fatalf("%s: %d logical shard(s) — nothing for workers to execute, identity would hold by construction", id, n)
			}
			refRep := ref[id].String()
			refSnap, refTrace := snapshotAndTrace(t, ref[id])
			if refTrace == "" {
				t.Fatalf("%s seed %d: empty reference trace — recorder saw no events", id, seed)
			}
			for _, workers := range []int{1, 4} {
				r := batch(t, shardIdentityIDs, shardIdentityOptions(seed, workers), 0)[id]
				snap, trace := snapshotAndTrace(t, r)
				if rep := r.String(); rep != refRep {
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
