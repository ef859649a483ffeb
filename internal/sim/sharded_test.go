package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// seqView is the test-only oracle for the partitioned engine: it schedules on
// one shared plain Engine while stamping events with a fixed logical-shard id
// and a private sequence counter — exactly the key (at, schedAt, src, seq) a
// shard engine assigns. One heap holding every event, popped in key order,
// is the definition of the order the shards must reproduce.
type seqView struct {
	e   *Engine
	src uint32
	seq uint64
}

func (v *seqView) Now() Time { return v.e.now }
func (v *seqView) At(t Time, fn Event) Handle {
	if t < v.e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, v.e.now))
	}
	v.seq++
	return v.e.push(t, v.e.now, v.src, v.seq-1, fn)
}
func (v *seqView) After(d Duration, fn Event) Handle             { return v.At(v.e.now+d, fn) }
func (v *seqView) Cancel(h Handle) bool                          { return v.e.Cancel(h) }
func (v *seqView) Every(period Duration, fn Event) (stop func()) { return every(v, period, fn) }
func (v *seqView) Register(name string, fn func(int32)) Kind     { return v.e.Register(name, fn) }
func (v *seqView) Post(d Duration, k Kind, id int32) {
	v.seq++
	v.e.enqueue(eventKey{at: v.e.now + d, schedAt: v.e.now, src: v.src, seq: v.seq - 1}, v.e.typed(k, id))
}

// shardedHarness builds a little message-passing simulation over ns shards:
// each shard runs a deterministic RNG-driven loop that does local work and
// occasionally sends an event to another shard with at least the window of
// latency, and the coordinator samples all of them at fixed times. Every
// executed event appends to its shard's log (the coordinator's is the last),
// so two runs are behaviorally identical iff the logs match. It runs on a
// partitioned engine with any worker count, or on the single-heap oracle.
type shardedHarness struct {
	drv    *Engine
	shard  func(i int) Scheduler
	send   func(src, dst int, d Duration, steps int)
	window Duration
	logs   [][]string
	rngs   []*rand.Rand
}

func newHarness(ns int, seed int64) *shardedHarness {
	h := &shardedHarness{logs: make([][]string, ns+1), rngs: make([]*rand.Rand, ns)}
	for i := 0; i < ns; i++ {
		h.rngs[i] = rand.New(rand.NewSource(seed ^ int64(i)<<16))
	}
	return h
}

// meshed returns an engine partitioned into ns fully connected shards.
func meshed(ns, workers int, window Duration) *Engine {
	e := New()
	e.Partition(ns, workers, window)
	for i := 0; i < ns; i++ {
		for j := 0; j < ns; j++ {
			e.Connect(i, j)
		}
	}
	return e
}

func newShardedHarness(ns, workers int, window Duration, seed int64) *shardedHarness {
	h := newHarness(ns, seed)
	h.drv = meshed(ns, workers, window)
	h.shard, h.window = h.drv.Shard, h.drv.Window()
	// A cross-shard hop is the typed event (hop, steps) on every shard.
	for i := 0; i < ns; i++ {
		h.drv.Shard(i).Register("hop", func(steps int32) { h.hop(i, int(steps)) })
	}
	h.send = func(src, dst int, d Duration, steps int) { h.drv.Send(src, dst, d, 0, int32(steps)) }
	return h
}

// newOracleHarness runs the harness on one plain engine stamped as
// coordinator, one view per logical shard, cross-shard sends degenerating to
// a local After under the source view's stamp.
func newOracleHarness(ns int, window Duration, seed int64) *shardedHarness {
	h := newHarness(ns, seed)
	h.drv = &Engine{src: uint32(ns)}
	views := make([]*seqView, ns)
	for i := range views {
		views[i] = &seqView{e: h.drv, src: uint32(i)}
	}
	h.shard = func(i int) Scheduler { return views[i] }
	h.send = func(src, dst int, d Duration, steps int) { views[src].After(d, func() { h.hop(dst, steps) }) }
	h.window = window
	return h
}

// hop logs one step on shard id and, while steps remain, schedules the next
// step locally or on a random peer.
func (h *shardedHarness) hop(id, steps int) {
	sch := h.shard(id)
	h.logs[id] = append(h.logs[id], fmt.Sprintf("%d@%v", steps, sch.Now()))
	if steps <= 0 {
		return
	}
	r := h.rngs[id]
	if len(h.rngs) > 1 && r.Intn(3) == 0 {
		peer := r.Intn(len(h.rngs) - 1)
		if peer >= id {
			peer++
		}
		d := h.window + Duration(r.Intn(5000))*Nanosecond
		h.send(id, peer, d, steps-1)
		return
	}
	sch.After(Duration(1+r.Intn(900))*Nanosecond, func() { h.hop(id, steps-1) })
}

// seed starts a 40-step chain on every shard and twenty coordinator samples
// of how far the chains have got.
func (h *shardedHarness) seed() *shardedHarness {
	ns := len(h.rngs)
	for i := 0; i < ns; i++ {
		id := i
		h.shard(id).At(Time(id)*Nanosecond, func() { h.hop(id, 40) })
	}
	for k := 1; k <= 20; k++ {
		h.drv.At(Time(k)*2*Microsecond, func() {
			seen := 0
			for _, l := range h.logs[:ns] {
				seen += len(l)
			}
			h.logs[ns] = append(h.logs[ns], fmt.Sprintf("%d@%v", seen, h.drv.Now()))
		})
	}
	return h
}

func runHarness(ns, workers int, seed int64) ([][]string, Time) {
	h := newShardedHarness(ns, workers, Microsecond, seed).seed()
	end := h.drv.Run()
	return h.logs, end
}

// TestShardedWorkerCountIndependence is the core determinism claim: the
// per-shard event sequences must be byte-identical no matter how many
// workers execute the logical shards — none (inline) included.
func TestShardedWorkerCountIndependence(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		ref, refEnd := runHarness(5, 0, seed)
		for _, workers := range []int{1, 2, 3, 5} {
			got, end := runHarness(5, workers, seed)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("seed %d: logs differ between 0 and %d workers:\n0: %v\n%d: %v",
					seed, workers, ref, workers, got)
			}
			if refEnd != end {
				t.Fatalf("seed %d: final time %v (0 workers) vs %v (%d workers)", seed, refEnd, end, workers)
			}
		}
	}
}

// TestSequentialViewsMatchSharded holds the partitioned engine to its
// definition: one plain Engine holding every event in a single heap, driven
// through key-stamping views, executes the exact same event sequence as the
// shards do for any worker count, because both order every event by the same
// (at, schedAt, src, seq) key.
func TestSequentialViewsMatchSharded(t *testing.T) {
	const ns = 5
	for _, seed := range []int64{1, 4, 9} {
		hs := newOracleHarness(ns, Microsecond, seed).seed()
		ref := hs.drv.Run()
		for _, workers := range []int{0, 1, 3, 5} {
			got, end := runHarness(ns, workers, seed)
			if !reflect.DeepEqual(hs.logs, got) {
				t.Fatalf("seed %d: single-heap oracle diverged from %d workers:\noracle: %v\nshards: %v",
					seed, workers, hs.logs, got)
			}
			if ref != end {
				t.Fatalf("seed %d: final time %v (oracle) vs %v (%d workers)", seed, ref, end, workers)
			}
		}
	}
}

// TestShardedRunUntilMatchesRun pins that windowed RunUntil epochs reach the
// same state as a single drain, and that the clock lands on the deadline.
func TestShardedRunUntilMatchesRun(t *testing.T) {
	for _, workers := range []int{0, 2} {
		ref, _ := runHarness(4, workers, 3)
		h := newShardedHarness(4, workers, Microsecond, 3).seed()
		for d := 5 * Microsecond; d <= 500*Microsecond; d += 5 * Microsecond {
			if got := h.drv.RunUntil(d); got != d {
				t.Fatalf("%d workers: RunUntil(%v) = %v", workers, d, got)
			}
		}
		if !reflect.DeepEqual(ref, h.logs) {
			t.Fatalf("%d workers: chunked RunUntil diverged from Run:\nrun:   %v\nchunk: %v", workers, ref, h.logs)
		}
	}
}

// TestShardedGlobalBarrier checks coordinator events interleave with shard
// events exactly by the documented key order: a global tick at time T runs
// after every shard event with time < T (and those scheduled earlier at T)
// and observes all their state.
func TestShardedGlobalBarrier(t *testing.T) {
	for _, workers := range []int{0, 3} {
		s := meshed(3, workers, Microsecond)
		counts := make([]int, 3)
		for i := 0; i < 3; i++ {
			id := i
			// 10 local events per shard, every 300ns starting at 300ns.
			var step func()
			n := 0
			step = func() {
				counts[id]++
				if n++; n < 10 {
					s.Shard(id).After(300*Nanosecond, step)
				}
			}
			s.Shard(id).After(300*Nanosecond, step)
		}
		var samples []int
		stop := s.Every(Microsecond, func() {
			total := 0
			for _, c := range counts {
				total += c
			}
			samples = append(samples, total)
		})
		s.RunUntil(4 * Microsecond)
		stop()
		// At each μs boundary every shard has fired floor(T/300ns) of its 10
		// events: 3, 6, 9, 10 → totals 9, 18, 27, 30.
		want := []int{9, 18, 27, 30}
		if !reflect.DeepEqual(samples, want) {
			t.Fatalf("%d workers: barrier samples = %v, want %v", workers, samples, want)
		}
	}
}

// wantSendPanic checks that a cross-shard send on a two-shard engine with
// only 0→1 connected panics, for inline and ring delivery alike: a fabric
// that only panics once workers are added would be a second code path.
func wantSendPanic(t *testing.T, what string, send func(s *Engine)) {
	t.Helper()
	for _, workers := range []int{0, 1} {
		s := New()
		s.Partition(2, workers, Microsecond)
		s.Connect(0, 1)
		for i := range 2 {
			s.Shard(i).Register("noop", func(int32) {})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d workers: %s cross-shard send did not panic", workers, what)
				}
			}()
			send(s)
		}()
	}
}

// TestShardedCrossShardBelowWindowPanics pins the lookahead guard.
func TestShardedCrossShardBelowWindowPanics(t *testing.T) {
	wantSendPanic(t, "sub-window", func(s *Engine) { s.Send(0, 1, 500*Nanosecond, 0, 0) })
}

// TestShardedUnconnectedSendPanics pins the declared-connection guard.
func TestShardedUnconnectedSendPanics(t *testing.T) {
	wantSendPanic(t, "undeclared", func(s *Engine) { s.Send(1, 0, Microsecond, 0, 0) })
}

// TestShardedSingleShardDegenerates checks the no-cut configuration: one
// shard, no window bound, plain sequential behavior for any worker count.
func TestShardedSingleShardDegenerates(t *testing.T) {
	s := New()
	s.Partition(1, 4, 0)
	var order []Time
	sch := s.Shard(0)
	sch.At(3*Microsecond, func() { order = append(order, sch.Now()) })
	sch.At(Microsecond, func() {
		order = append(order, sch.Now())
		sch.After(500*Nanosecond, func() { order = append(order, sch.Now()) })
	})
	end := s.Run()
	want := []Time{Microsecond, 1500 * Nanosecond, 3 * Microsecond}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if end != 3*Microsecond {
		t.Fatalf("end = %v", end)
	}
}

// TestShardedStats checks the aggregate counters are sums over components.
func TestShardedStats(t *testing.T) {
	for _, workers := range []int{0, 2} {
		h := newShardedHarness(3, workers, Microsecond, 9).seed()
		h.drv.Run()
		total := 0
		for _, l := range h.logs {
			total += len(l)
		}
		if got := h.drv.Stats().Processed; got != uint64(total) {
			t.Fatalf("%d workers: Processed = %d, want %d logged events (coordinator's included)", workers, got, total)
		}
		if got := h.drv.Pending(); got != 0 {
			t.Fatalf("%d workers: Pending = %d after Run", workers, got)
		}
	}
}

// TestStopKeepsClocks pins that a run ended by Stop leaves every clock at
// the event that stopped it. RunUntil used to jump to the deadline anyway,
// over still-queued events, so the next run set the clock back and an At in
// between panicked "before now".
func TestStopKeepsClocks(t *testing.T) {
	for name, build := range map[string]func() (*Engine, Scheduler){
		"plain":     func() (*Engine, Scheduler) { e := New(); return e, e },
		"0 workers": func() (*Engine, Scheduler) { e := meshed(2, 0, Microsecond); return e, e.Shard(1) },
		"2 workers": func() (*Engine, Scheduler) { e := meshed(2, 2, Microsecond); return e, e.Shard(1) },
	} {
		e, late := build()
		e.At(5*Nanosecond, e.Stop)
		ran := false
		late.At(7*Nanosecond, func() { ran = true })
		if got := e.RunUntil(10 * Nanosecond); got != 5*Nanosecond || late.Now() != 5*Nanosecond {
			t.Fatalf("%s: stopped RunUntil returned %v with the other clock at %v, want 5ns both", name, got, late.Now())
		}
		if ran || e.Pending() != 1 {
			t.Fatalf("%s: event past the stop ran=%v, %d pending", name, ran, e.Pending())
		}
		late.At(6*Nanosecond, func() {}) // legal: 6ns is still the future
		if got := e.RunUntil(10 * Nanosecond); got != 10*Nanosecond || late.Now() != 10*Nanosecond || !ran {
			t.Fatalf("%s: resumed RunUntil returned %v (other clock %v, ran=%v)", name, got, late.Now(), ran)
		}
	}
}

// TestInlineEpochAllocatesNothing is the gate on the zero-worker path every
// sequential run now takes: advancing the shards to a coordinator event,
// executing it and parking again must not touch the allocator — the owner
// lists are built once at partition time and no epoch state lives on the
// heap.
func TestInlineEpochAllocatesNothing(t *testing.T) {
	e := meshed(3, 0, Microsecond)
	for i := 0; i < 3; i++ {
		e.Shard(i).Register("noop", func(int32) {})
	}
	for i := 0; i < 3; i++ {
		id := i
		var step func()
		step = func() {
			e.Shard(id).After(300*Nanosecond, step)
			e.Send(id, (id+1)%3, Microsecond, 0, 0)
		}
		e.Shard(id).After(300*Nanosecond, step)
	}
	ticks := 0
	e.Every(700*Nanosecond, func() { ticks++ })
	e.RunUntil(100 * Microsecond) // grow the arenas and heaps to their working size
	before := ticks
	if a := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 2*Microsecond) }); a != 0 {
		t.Fatalf("a zero-worker RunUntil step allocates %.1f times, want 0", a)
	}
	if ticks-before < 200 {
		t.Fatalf("only %d coordinator events ran; the measured steps did no epochs", ticks-before)
	}
}
