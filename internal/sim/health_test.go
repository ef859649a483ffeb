package sim

import "testing"

// TestShardedHealth drives a two-shard ping-pong and checks the operational
// counters move: windows seal, cross-shard traffic registers ring occupancy,
// and the snapshot covers every shard. Stall and spin counts are timing
// dependent, so only their presence (non-negative, monotonic) is asserted.
func TestShardedHealth(t *testing.T) {
	s := meshed(2, 2, Microsecond)
	// Ping-pong: each arrival bounces an event back across the cut.
	n := 0
	for i := range 2 {
		s.Shard(i).Register("bounce", func(int32) {
			if n++; n < 200 {
				s.Send(i, 1-i, Microsecond, 0, 0)
			}
		})
	}
	s.Send(0, 1, Microsecond, 0, 0)
	s.RunUntil(400 * Microsecond)

	h := s.Health()
	if len(h) != 2 {
		t.Fatalf("Health() returned %d shards, want 2", len(h))
	}
	var seals, ringPeak uint64
	for i, sh := range h {
		if sh.Shard != i {
			t.Fatalf("Health()[%d].Shard = %d", i, sh.Shard)
		}
		seals += sh.Seals
		if sh.RingPeak > ringPeak {
			ringPeak = sh.RingPeak
		}
	}
	if seals == 0 {
		t.Fatal("no windows sealed despite 400 executed windows per shard")
	}
	if ringPeak == 0 {
		t.Fatal("cross-shard ping-pong recorded no ring occupancy")
	}

	// Counters are monotonic: a second epoch can only grow them.
	s.Send(0, 1, Microsecond, 0, 0)
	s.RunUntil(500 * Microsecond)
	for i, sh := range s.Health() {
		if sh.Seals < h[i].Seals || sh.WindowStalls < h[i].WindowStalls {
			t.Fatalf("shard %d counters regressed: %+v -> %+v", i, h[i], sh)
		}
	}
}

// TestEngineHealthEmpty pins the plain engine's trivial HealthSource.
func TestEngineHealthEmpty(t *testing.T) {
	var e Engine
	if h := e.Health(); len(h) != 0 {
		t.Fatalf("Engine.Health() = %v, want empty", h)
	}
}
