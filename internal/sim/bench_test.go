package sim

import "testing"

// The BenchmarkEngine* suite measures the scheduler hot paths of the keyed
// event heap: schedule+fire and schedule+cancel at depth 1 (the path every
// idle port and timer lives on, which must not pay for the deep one), bulk
// churn at depth 1024, and build-fill-drain. CI runs these with -benchmem;
// the steady-state paths must stay at 0 allocs/op. (bench/ -layers reports
// the same quantities, and the hold model at depths 1 k and 64 k, with
// repetitions and a host descriptor.)

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
