package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if Microsecond.Micros() != 1 {
		t.Errorf("Micros() = %v, want 1", Microsecond.Micros())
	}
	if (2 * Millisecond).Millis() != 2 {
		t.Errorf("Millis() = %v, want 2", (2 * Millisecond).Millis())
	}
	if (3 * Second).Seconds() != 3 {
		t.Errorf("Seconds() = %v, want 3", (3 * Second).Seconds())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{24 * Microsecond, "24.000us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationFromSeconds(t *testing.T) {
	if got := DurationFromSeconds(0.001); got != Millisecond {
		t.Errorf("DurationFromSeconds(0.001) = %v, want 1ms", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Errorf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestEngineSchedulingInsideEvent(t *testing.T) {
	e := New()
	var fired []Time
	e.At(time1(), func() {
		fired = append(fired, e.Now())
		e.After(5*Nanosecond, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10*Nanosecond || fired[1] != 15*Nanosecond {
		t.Fatalf("fired = %v", fired)
	}
}

func time1() Time { return 10 * Nanosecond }

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10*Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5*Nanosecond, func() {})
}

func TestEngineNilEventPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := New()
	ran := false
	h := e.At(10*Nanosecond, func() { ran = true })
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for a live event")
	}
	if e.Cancel(h) {
		t.Error("second Cancel returned true")
	}
	// The entry stays queued until its time, but the callback — and
	// whatever it captured — is released at once: a far-future timer
	// cancelled early must not pin its owner until then.
	if e.Pending() != 1 || e.slots[h.idx].fn != nil {
		t.Errorf("after Cancel: %d pending, callback released: %v", e.Pending(), e.slots[h.idx].fn == nil)
	}
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Cancel(Handle{}) {
		t.Error("Cancel of zero Handle returned true")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := New()
	h := e.At(1*Nanosecond, func() {})
	e.Run()
	if e.Cancel(h) {
		t.Error("Cancel after fire returned true")
	}
}

func TestHandleValid(t *testing.T) {
	var zero Handle
	if zero.Valid() {
		t.Error("zero Handle is Valid")
	}
	e := New()
	h := e.At(1, func() {})
	if !h.Valid() {
		t.Error("scheduled Handle not Valid")
	}
	e.Run()
	if h.Valid() {
		t.Error("Handle still Valid after its event fired")
	}
	h2 := e.At(2, func() {})
	e.Cancel(h2)
	if h2.Valid() {
		t.Error("Handle still Valid after Cancel")
	}
}

// A stale handle must stay inert even after the engine reuses its arena
// slot for a new event: the generation check has to protect the newcomer.
func TestHandleStaleAfterSlotReuse(t *testing.T) {
	e := New()
	h := e.At(1*Nanosecond, func() {})
	e.Run() // fires; slot goes on the free list
	ran := false
	h2 := e.At(2*Nanosecond, func() { ran = true })
	if h.Valid() {
		t.Error("stale handle Valid after slot reuse")
	}
	if e.Cancel(h) {
		t.Error("stale handle cancelled the reused slot's event")
	}
	e.Run()
	if !ran {
		t.Fatal("new event did not run — stale cancel hit it")
	}
	_ = h2
}

// Cancelling a handle that belongs to a different engine is a no-op.
func TestCancelForeignHandle(t *testing.T) {
	a, b := New(), New()
	h := a.At(1, func() {})
	if b.Cancel(h) {
		t.Error("engine cancelled another engine's handle")
	}
	if !a.Cancel(h) {
		t.Error("owning engine failed to cancel")
	}
}

// The arena must reuse slots: heavy schedule/fire churn through a bounded
// number of outstanding events must not grow the slab.
func TestArenaSlotReuse(t *testing.T) {
	e := New()
	for i := 0; i < 10_000; i++ {
		e.At(e.Now()+Nanosecond, func() {})
		if i%3 == 0 { // sprinkle cancels through the churn
			e.Cancel(e.At(e.Now()+2*Nanosecond, func() {}))
		}
		for e.Step() {
		}
	}
	if n := len(e.slots); n > 8 {
		t.Fatalf("arena grew to %d slots for ≤2 outstanding events", n)
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*Nanosecond, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	// Run resumes from where it stopped.
	e.Run()
	if count != 5 {
		t.Fatalf("after resume count = %d, want 5", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at * Nanosecond
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(20 * Nanosecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (events at deadline must run)", len(fired))
	}
	if e.Now() != 20*Nanosecond {
		t.Errorf("Now() = %v, want 20ns", e.Now())
	}
	// Deadline with no events advances the clock.
	e.RunUntil(100 * Nanosecond)
	if len(fired) != 4 || e.Now() != 100*Nanosecond {
		t.Errorf("fired=%d now=%v", len(fired), e.Now())
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	e := New()
	h := e.At(5*Nanosecond, func() { t.Fatal("cancelled event ran") })
	e.Cancel(h)
	ran := false
	e.At(7*Nanosecond, func() { ran = true })
	e.RunUntil(10 * Nanosecond)
	if !ran {
		t.Fatal("live event did not run")
	}
}

func TestEvery(t *testing.T) {
	e := New()
	var times []Time
	stop := e.Every(10*Nanosecond, func() {
		times = append(times, e.Now())
	})
	e.At(35*Nanosecond, func() { stop() })
	e.Run()
	if len(times) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", times)
	}
	for i, want := range []Time{10, 20, 30} {
		if times[i] != want*Nanosecond {
			t.Errorf("tick %d at %v, want %vns", i, times[i], want)
		}
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	e := New()
	n := 0
	var stop func()
	stop = e.Every(Nanosecond, func() {
		n++
		if n == 4 {
			stop()
		}
	})
	e.Run()
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func() {})
}

// Property: for any set of event times, the engine fires them in
// non-decreasing time order and ends at the max time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		e := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r % 1_000_000)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return e.Now() == fired[len(fired)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset never fires the cancelled events and
// always fires the rest.
func TestEngineCancelProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		total := int(n%64) + 1
		fired := make([]bool, total)
		handles := make([]Handle, total)
		for i := 0; i < total; i++ {
			i := i
			handles[i] = e.At(Time(rng.Intn(1000)), func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := range handles {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(handles[i])
			}
		}
		e.Run()
		for i := range fired {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPendingTimes(t *testing.T) {
	e := New()
	e.At(10*Nanosecond, func() {})
	h := e.At(20*Nanosecond, func() {})
	e.Cancel(h)
	ts := e.pendingTimes(10)
	if len(ts) != 1 || ts[0] != 10*Nanosecond {
		t.Fatalf("PendingTimes = %v", ts)
	}
	if got := e.pendingTimes(0); len(got) != 0 {
		t.Fatalf("PendingTimes(0) = %v", got)
	}
}

// TestPendingTimesContract pins the documented n≤Pending clamp: n beyond
// the queue length returns every pending time, and negative n is treated as
// zero instead of panicking on a negative allocation.
func TestPendingTimesContract(t *testing.T) {
	e := New()
	for i := 1; i <= 3; i++ {
		e.At(Time(i)*Nanosecond, func() {})
	}
	if got := e.pendingTimes(1 << 20); len(got) != 3 {
		t.Fatalf("PendingTimes(huge) = %v, want all 3", got)
	}
	if got := e.pendingTimes(-5); len(got) != 0 {
		t.Fatalf("PendingTimes(-5) = %v, want empty", got)
	}
}

// TestEveryStopIdempotent pins the redesigned stop: the first call cancels
// the outstanding tick (no dead event left in the queue), and calling it
// again — even after the arena slot has been reused by fresh events — stays
// a harmless no-op that cannot touch the new occupant.
func TestEveryStopIdempotent(t *testing.T) {
	e := New()
	n := 0
	stop := e.Every(10*Nanosecond, func() { n++ })
	e.RunUntil(25 * Nanosecond)
	if n != 2 {
		t.Fatalf("ticks before stop = %d, want 2", n)
	}
	stop()
	if got := len(e.pendingTimes(10)); got != 0 {
		t.Fatalf("stop left %d live events queued", got)
	}
	// Reuse the freed slot, then double-stop: the new event must survive.
	fired := false
	e.At(40*Nanosecond, func() { fired = true })
	stop()
	stop()
	e.Run()
	if !fired {
		t.Fatal("double-stop cancelled an unrelated event that reused the slot")
	}
	if n != 2 {
		t.Fatalf("ticks after stop = %d, want 2", n)
	}
}

// TestSchedulerConformance pins that the three contexts a Scheduler can be —
// a plain engine, the coordinator of a partitioned one, one of its shards —
// honour the same contract through the interface, whoever executes the
// shards.
func TestSchedulerConformance(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for name, build := range map[string]func() (Scheduler, Driver){
			"plain":       func() (Scheduler, Driver) { e := New(); return e, e },
			"coordinator": func() (Scheduler, Driver) { e := meshed(2, workers, Microsecond); return e, e },
			"shard-local": func() (Scheduler, Driver) { e := meshed(2, workers, Microsecond); return e.Shard(0), e },
		} {
			s, driver := build()
			var order []string
			h := s.At(5*Nanosecond, func() { order = append(order, "cancelled") })
			s.After(2*Nanosecond, func() { order = append(order, "a") })
			s.At(2*Nanosecond, func() { order = append(order, "b") })
			if !s.Cancel(h) {
				t.Fatalf("%s, %d workers: Cancel = false", name, workers)
			}
			stop := s.Every(3*Nanosecond, func() { order = append(order, "tick") })
			s.At(7*Nanosecond, func() { stop() })
			driver.Run()
			want := []string{"a", "b", "tick", "tick"}
			if !reflect.DeepEqual(order, want) {
				t.Errorf("%s, %d workers: order = %v, want %v", name, workers, order, want)
			}
		}
	}
}
