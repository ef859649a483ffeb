package sim

// Operational health counters of a partitioned engine's shards. Unlike EngineStats these
// are NOT deterministic: they count synchronization behavior (stalls, spins,
// wall-clock seal latency) that depends on worker scheduling and machine
// load, so they must never feed a Report metric or the deterministic
// telemetry registry. They exist for live exposition (the control-plane
// daemon's /metrics endpoint) where a flapping window-stall rate or a
// saturated ring is an actionable signal.

// ShardHealth is a snapshot of one shard's synchronization counters.
type ShardHealth struct {
	// Shard is the logical shard ID.
	Shard int
	// WindowStalls counts tryAdvance passes that returned without work
	// because an upstream shard had not yet sealed the previous window.
	WindowStalls uint64
	// SendSpins counts backpressure spins in Send while a full outbound
	// ring was drained by its consumer.
	SendSpins uint64
	// Seals counts fully executed-and-sealed windows.
	Seals uint64
	// SealNanos is the cumulative wall-clock time spent executing sealed
	// windows, in nanoseconds; SealNanos/Seals is the mean seal latency.
	SealNanos uint64
	// RingPeak is the maximum number of events drained from this shard's
	// inbound rings in a single drain pass — a lower bound on peak ring
	// occupancy (capacity ringCapacity per upstream ring).
	RingPeak uint64
}

// HealthSource is implemented by drivers that expose per-shard operational
// health; a plain Engine has no shards and reports none.
type HealthSource interface {
	Health() []ShardHealth
}

var _ HealthSource = (*Engine)(nil)

// Health returns a snapshot of every shard's counters. Safe to call
// concurrently with a running epoch (values are monotonic atomics), though a
// mid-epoch snapshot may be mutually inconsistent across fields.
func (e *Engine) Health() []ShardHealth {
	out := make([]ShardHealth, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardHealth{
			Shard:        i,
			WindowStalls: sh.health.windowStalls.Load(),
			SendSpins:    sh.health.sendSpins.Load(),
			Seals:        sh.health.seals.Load(),
			SealNanos:    sh.health.sealNanos.Load(),
			RingPeak:     sh.health.ringPeak.Load(),
		}
	}
	return out
}
