package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// typedSchedule runs one random schedule on four meshed shards and returns
// what fired, shard by shard (the coordinator's samples last). Every local
// event is scheduled as a closure (After) or, with typed set, as the typed
// record (fire, id) (Post); everything else is the same in both: the draws,
// equal-time ties, decoy closures of which some are cancelled, and
// cross-shard Sends. Posting must be a drop-in for After: same key, same
// order, for any worker count.
func typedSchedule(typed bool, workers int, seed int64) [][]string {
	const ns, perShard = 4, 300
	e := meshed(ns, workers, Microsecond)
	logs := make([][]string, ns+1)
	made := make([]int, ns)
	decoys := make([][]Handle, ns)
	rngs := make([]*rand.Rand, ns)
	kinds := make([]Kind, ns)
	var fire func(s int, id int32)
	schedule := func(s int, d Duration, id int32) {
		if typed {
			e.Shard(s).Post(d, kinds[s], id)
		} else {
			e.Shard(s).After(d, func() { fire(s, id) })
		}
	}
	// child names a new event after the shard that made it: shards never
	// share a counter, whichever workers run them.
	child := func(s int) int32 {
		made[s]++
		return int32(made[s]*ns + s)
	}
	fire = func(s int, id int32) {
		sch, r := e.Shard(s), rngs[s]
		logs[s] = append(logs[s], fmt.Sprintf("%d@%v", id, sch.Now()))
		for n := 1 + r.Intn(3); n > 0 && made[s] < perShard; n-- {
			switch x := r.Intn(10); {
			case x < 2:
				peer := (s + 1 + r.Intn(ns-1)) % ns
				e.Send(s, peer, Microsecond+Duration(r.Intn(3))*Nanosecond, kinds[peer], child(s))
			case x < 4:
				tag := child(s)
				decoys[s] = append(decoys[s], sch.After(Duration(r.Intn(3))*Nanosecond, func() {
					logs[s] = append(logs[s], fmt.Sprintf("decoy %d@%v", tag, sch.Now()))
				}))
			case x < 5 && len(decoys[s]) > 0:
				i := r.Intn(len(decoys[s]))
				sch.Cancel(decoys[s][i])
				decoys[s] = append(decoys[s][:i], decoys[s][i+1:]...)
			default:
				schedule(s, Duration(r.Intn(3))*Nanosecond, child(s))
			}
		}
	}
	for s := 0; s < ns; s++ {
		rngs[s] = rand.New(rand.NewSource(seed + int64(s)))
		kinds[s] = e.Shard(s).Register("fire", func(id int32) { fire(s, id) })
	}
	for s := 0; s < ns; s++ {
		for i := 0; i < 3; i++ {
			schedule(s, Duration(s+i)*Nanosecond, child(s))
		}
	}
	for k := 1; k <= 10; k++ {
		e.At(Time(k)*700*Nanosecond, func() {
			logs[ns] = append(logs[ns], fmt.Sprintf("%v: %v", e.Now(), made))
		})
	}
	e.Run()
	return logs
}

// TestTypedMatchesClosures is the differential test of the typed path.
func TestTypedMatchesClosures(t *testing.T) {
	for _, seed := range []int64{1, 5, 11} {
		ref := typedSchedule(false, 0, seed)
		fired := 0
		for _, l := range ref {
			fired += len(l)
		}
		if fired < 500 {
			t.Fatalf("seed %d: only %d events fired; the schedule is too small to compare", seed, fired)
		}
		for _, workers := range []int{0, 4} {
			for _, typed := range []bool{false, true} {
				if got := typedSchedule(typed, workers, seed); !reflect.DeepEqual(ref, got) {
					t.Fatalf("seed %d, %d workers, typed %v: firing order differs from closures at 0 workers:\n%v\n%v",
						seed, workers, typed, ref, got)
				}
			}
		}
	}
}

// TestTypedEntriesCounted: typed events are pending events like any other —
// Pending, PendingTimes, PeakPending and Processed count them — but hold no
// arena slot, so ArenaSlots counts closure events only.
func TestTypedEntriesCounted(t *testing.T) {
	e := New()
	var got []int32
	k := e.Register("log", func(id int32) { got = append(got, id) })
	e.Post(5*Nanosecond, k, 1)
	e.Post(3*Nanosecond, k, 2)
	e.Cancel(e.At(4*Nanosecond, func() { t.Error("cancelled closure fired") }))
	e.Post(3*Nanosecond, k, 3)
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4 (three typed, one cancelled closure)", e.Pending())
	}
	times := e.PendingTimes(e.Pending())
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if want := []Time{3 * Nanosecond, 3 * Nanosecond, 5 * Nanosecond}; !reflect.DeepEqual(times, want) {
		t.Fatalf("PendingTimes = %v, want %v", times, want)
	}
	if st := e.Stats(); st.ArenaSlots != 1 || st.PeakPending != 4 {
		t.Fatalf("Stats = %+v, want 1 arena slot and a peak of 4", st)
	}
	e.Run()
	if st := e.Stats(); st.Processed != 3 || st.Pending != 0 || !reflect.DeepEqual(got, []int32{2, 3, 1}) {
		t.Fatalf("after Run: %+v, fired %v; want 3 processed in order [2 3 1]", st, got)
	}
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestTypedKindMisusePanicsAtSetUp: a kind the engine never registered, an
// id that does not fit the entry, a ninth kind, and two shards numbering
// their kinds differently are each caught before any event fires.
func TestTypedKindMisusePanicsAtSetUp(t *testing.T) {
	e := New()
	k := e.Register("a", func(int32) {})
	mustPanic(t, "Post of an unregistered kind", func() { e.Post(0, k+1, 0) })
	mustPanic(t, "Post of a negative id", func() { e.Post(0, k, -1) })
	mustPanic(t, "Post of an id beyond 28 bits", func() { e.Post(0, k, 1<<28) })
	for i := 1; i < 1<<kindBits; i++ {
		e.Register(fmt.Sprint(i), func(int32) {})
	}
	mustPanic(t, "a ninth kind", func() { e.Register("ninth", func(int32) {}) })

	s := meshed(2, 0, Microsecond)
	s.Shard(0).Register("a", func(int32) {})
	mustPanic(t, "Send of a kind the destination never registered", func() { s.Send(0, 1, Microsecond, 0, 0) })

	for _, workers := range []int{0, 2} {
		s := meshed(2, workers, Microsecond)
		ran := false
		for i, names := range [][]string{{"a", "b"}, {"b"}} {
			for _, name := range names {
				s.Shard(i).Register(name, func(int32) { ran = true })
			}
		}
		s.Shard(0).Post(Nanosecond, 0, 0)
		mustPanic(t, "Run over shards numbering a kind differently", func() { s.Run() })
		if ran {
			t.Errorf("%d workers: an event fired before the numbering was checked", workers)
		}

		s = meshed(2, workers, Microsecond)
		for i := range 2 {
			s.Shard(i).Register("a", func(int32) {})
		}
		s.RunUntil(Microsecond)
		mustPanic(t, "Register on a shard after the run started", func() { s.Shard(1).Register("late", func(int32) {}) })
	}
}
