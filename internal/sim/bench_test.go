package sim

import (
	"fmt"
	"testing"
)

// The BenchmarkEngine* suite measures the scheduler hot paths of the keyed
// event queue: schedule+fire and schedule+cancel at depth 1 (the path every
// idle port and timer lives on, which must not pay for the deep one), bulk
// churn at depth 1024, build-fill-drain, and the hold model in the shapes
// the queue's tiers meet (below). CI runs these with -benchmem; the
// steady-state paths must stay at 0 allocs/op. (bench/ -layers reports
// sched_fire, cancel and the dense holds with repetitions and a host
// descriptor.)

// noop is a shared callback so closure allocation does not pollute the
// per-event numbers.
var noop = func() {}

// steady-state schedule→fire of a single outstanding event: the arena
// engine reuses one slot forever.

func BenchmarkEngineScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := New()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Nanosecond, noop)
		e.Step()
	}
}

// schedule→cancel→drain: exercises lazy deletion and free-list reuse of
// cancelled slots.

func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := New()
	for i := 0; i < b.N; i++ {
		h := e.At(e.Now()+Nanosecond, noop)
		e.Cancel(h)
		e.Step() // pops the cancelled slot back onto the free list
	}
}

// churn with a deep queue: 1024 outstanding events, each firing schedules
// a successor, so the heap stays hot at depth log₄(1024).

func benchChurn(b *testing.B, depth int) {
	b.ReportAllocs()
	e := New()
	var self func()
	self = func() { e.After(Microsecond, self) }
	for j := 0; j < depth; j++ {
		e.After(Duration(j)*Nanosecond, self)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineChurn1k(b *testing.B) { benchChurn(b, 1024) }

// the original whole-engine benchmark: build, fill, drain.

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.At(Time(j), noop)
		}
		e.Run()
	}
}

// The hold model: pop one event and post one at a distance next draws from
// a xorshift stream, at a steady depth. Every event reposts itself with its
// own draw function, so a mix of them keeps its populations.
func benchHold(b *testing.B, classes ...holdClass) {
	e := New()
	x := uint64(0x9e3779b97f4a7c15)
	for _, c := range classes {
		var self func()
		self = func() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			e.After(c.next(x), self)
		}
		for j := range c.depth {
			e.After(c.next(uint64(j)*0x9e3779b97f4a7c15), self)
		}
	}
	for e.Processed < 4*uint64(e.Pending()) { // warm: the tiers reach their working size
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e.Step()
	}
}

type holdClass struct {
	depth int
	next  func(x uint64) Duration
}

// dense is bench/layers.go's hold: 0–2 µs ahead, so every entry is due
// within the ring.
func dense(depth int) holdClass {
	return holdClass{depth, func(x uint64) Duration { return Duration(x%2000) * Nanosecond }}
}

// BenchmarkEngineHold is the dense hold at 1 k and 64 k pending (bench/'s
// sim.hold_ns_d1k and sim.hold_ns_d64k): at 64 k a bucket holds ≈ 260
// entries.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchHold(b, dense(depth)) })
	}
}

// BenchmarkEngineHoldFar spreads 1 k events from 1 ns to 1 s ahead,
// log-uniformly: almost everything pending is beyond the ring, and every
// entry that fires has moved through all three tiers — the calendar's
// worst case.
func BenchmarkEngineHoldFar(b *testing.B) {
	benchHold(b, holdClass{1 << 10, func(x uint64) Duration {
		scale := Nanosecond << (x % 30)
		return scale + Duration(x>>32)%scale
	}})
}

// BenchmarkEngineHoldBimodal is shaped like fabric1k_backlog's shard queue:
// ≈ 300 hop events due within 2 µs and ≈ 1 050 μFAB-E timers 32–512 µs
// ahead. (With these delays a closed hold posts 99 % near, where the fabric
// posts 92 %: there, timers are also posted at zero delay and superseded.)
func BenchmarkEngineHoldBimodal(b *testing.B) {
	benchHold(b, dense(300), holdClass{1050, func(x uint64) Duration {
		return 32*Microsecond + Duration(x%480_000)*Nanosecond
	}})
}
