// Package sim provides the discrete-event simulation engine that underlies
// every μFAB experiment. Time is kept in integer picoseconds so that packet
// serialization delays on 100 Gbps links (5.12 ns for a 64-byte frame) are
// exactly representable; the int64 horizon (~106 days) far exceeds any
// experiment length.
//
// The engine is deliberately minimal: one queue of pending events with
// deterministic FIFO tie-breaking for events scheduled at the same instant,
// plus cancellable timers. Determinism matters because the evaluation
// compares schemes on identical traffic traces. The queue (heap.go) keeps
// what is due in a small 4-ary heap, what is due within 8.4 µs in a ring of
// 8 ns buckets and the rest in a second heap; all three share one order.
//
// There is one driver type and one run loop. An Engine may be partitioned at
// set-up into logical shards — child engines with their own arena, heap and
// sequence counter — of which it becomes the coordinator (sharded.go); its
// Run and RunUntil then advance the shards up to each of its own events
// before executing it. A plain engine is that loop over zero shards, and how
// many goroutines execute the shards (none: inline on the caller) is an
// execution detail that never reaches an event key.
//
// A pending event is one of two records. Its queue entry (heap.go) carries
// the whole ordering key (at, schedAt, src, seq) inline, so ordering the
// queue never leaves the heap's backing array. A closure event (At, After)
// points the entry at a slab-allocated arena slot holding its callback;
// fired and cancelled slots go on a free list and are reused, and Handles
// are generation-checked, which makes stale cancels (after the event fired,
// or after its slot was reused) safe no-ops. A typed event (Post, Send) is
// the pair (kind, id) itself, packed into the entry where a slot index would
// be: it takes no slot and cannot be cancelled, and firing it calls the
// handler its kind was registered with (Register) on id. Steady-state
// scheduling of either performs no heap allocation at all.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in picoseconds since the start of the
// simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration = Time

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// DurationFromSeconds converts a float64 number of seconds to a Duration.
func DurationFromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Event is a callback scheduled to run at a specific simulated time.
type Event func()

// Scheduler is the clock-and-timer surface agents program against: a plain
// engine, the coordinator of a partitioned one, or one of its shards
// (Engine.Shard), so agent code is indifferent to which clock it runs on.
// Callers must only invoke a Scheduler from the goroutine that executes its
// events (for a shard, that shard's worker; for the coordinator, the
// goroutine that called Run/RunUntil, during set-up or from its own events).
type Scheduler interface {
	// Now returns the current simulated time.
	Now() Time
	// At schedules fn at absolute time t; t < Now panics.
	At(t Time, fn Event) Handle
	// After schedules fn at Now+d; negative d panics.
	After(d Duration, fn Event) Handle
	// Cancel deschedules a pending event; stale handles are safe no-ops.
	Cancel(h Handle) bool
	// Every runs fn periodically until the returned stop is called.
	Every(period Duration, fn Event) (stop func())
	// Register adds a kind of typed event whose handler is fn (set-up only).
	Register(name string, fn func(id int32)) Kind
	// Post schedules the typed event (k, id) at Now+d; negative d panics.
	Post(d Duration, k Kind, id int32)
}

// Kind numbers a kind of typed event on one engine, in registration order.
type Kind uint8

// A typed event's heap entry holds ^(id<<kindBits | kind), which is
// negative: an arena slot index never is.
const kindBits = 3

// Driver is the run-loop surface owned by whoever drives the simulation
// forward (experiments, the fuzz executor, the control-plane daemon): an
// *Engine that is nobody's shard.
type Driver interface {
	Scheduler
	// Run executes events until the queue drains or Stop is called.
	Run() Time
	// RunUntil executes events with time ≤ deadline, then advances the
	// clock to the deadline unless Stop ended the run first.
	RunUntil(deadline Time) Time
	// Stop makes Run/RunUntil return after the current event.
	Stop()
}

// StatsSource is satisfied by schedulers that can report scheduling
// statistics; the telemetry flush type-asserts against it.
type StatsSource interface {
	Stats() EngineStats
}

var (
	_ Driver      = (*Engine)(nil)
	_ StatsSource = (*Engine)(nil)
)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles are generation-checked: once the event fires
// or is cancelled, the handle goes stale and every operation on it is a
// safe no-op, even after the engine reuses the event's arena slot.
type Handle struct {
	e   *Engine
	idx int32
	gen uint32
}

// Valid reports whether the handle refers to an event that is still
// pending: scheduled, not yet fired, and not cancelled. A handle goes
// invalid the moment its event fires or is cancelled.
func (h Handle) Valid() bool {
	if h.e == nil || int(h.idx) >= len(h.e.slots) {
		return false
	}
	return h.e.slots[h.idx].gen == h.gen
}

// eventSlot is one arena entry. A slot is in exactly one of three states:
// pending (referenced by the heap, live), cancelled (still referenced by
// the heap until popped), or free (linked into the free list via nextFree).
// gen increments whenever the slot's event fires or is cancelled, which
// invalidates all outstanding Handles to it. The event's ordering key lives
// in its heap entry (heap.go), not here.
type eventSlot struct {
	fn        Event
	gen       uint32
	cancelled bool
	nextFree  int32 // free-list link, 1-based; 0 terminates
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use: its own events run on the goroutine
// that calls Run, RunUntil or Step, and between them it has exclusive access
// to its shards, if Partition gave it any.
type Engine struct {
	now     Time
	seq     uint64
	src     uint32      // shard ID stamped on locally scheduled events
	slots   []eventSlot // event arena
	free    int32       // free-list head, 1-based; 0 = empty
	stopped bool
	// maxSched is the latest time any event was ever scheduled for;
	// monotone. Run uses it to bound the epochs that drain a shard.
	maxSched Time
	// Processed counts events executed so far by this engine's own queue
	// (Stats adds the shards'); useful for runaway detection in tests.
	Processed   uint64
	peakPending int
	// kinds are the typed-event handlers by Kind and names their names
	// (which Run compares across the shards of a partition); sealed is set
	// on a shard once its coordinator has checked them and forbids more.
	kinds  []func(id int32)
	names  []string
	sealed bool

	// Partition state (sharded.go): the shards this engine coordinates,
	// their lookahead window, and the share of each worker goroutine that
	// executes them (no crew: inline). All zero for a plain engine and for
	// a shard.
	shards  []*shard
	window  Duration
	crew    [][]*shard
	started bool // a worker epoch has run: set-up is over, rings carry the sends

	q queue // pending events in key order (heap.go); its bucket index last
}

// EngineStats is a snapshot of the engine's scheduling activity, pulled by
// the telemetry flush at sampling time. The engine itself stays free of
// telemetry dependencies so the hot path pays nothing for introspection.
type EngineStats struct {
	Now         Time
	Processed   uint64 // events executed
	Pending     int    // events still queued (incl. not-yet-popped cancels)
	PeakPending int    // high-water mark of the event queue
	ArenaSlots  int    // arena size: peak live+free closure-event slots
}

// Stats returns the current scheduling statistics, summed over the engine's
// own queue and its shards' (Now is the engine's own clock). The sums do not
// depend on the worker count because no component engine's activity does.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Now:         e.now,
		Processed:   e.Processed,
		Pending:     e.q.n,
		PeakPending: e.peakPending,
		ArenaSlots:  len(e.slots),
	}
	for _, sh := range e.shards {
		es := sh.eng.Stats()
		st.Processed += es.Processed
		st.Pending += es.Pending
		st.PeakPending += es.PeakPending
		st.ArenaSlots += es.ArenaSlots
	}
	return st
}

// alloc returns an arena slot index, reusing a freed slot when possible.
func (e *Engine) alloc() int32 {
	if e.free != 0 {
		idx := e.free - 1
		e.free = e.slots[idx].nextFree
		return idx
	}
	e.slots = append(e.slots, eventSlot{})
	return int32(len(e.slots) - 1)
}

// release returns a slot (already popped from the heap) to the free list.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.cancelled = false
	s.nextFree = e.free
	e.free = idx + 1
}

// New returns a new Engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been popped), the shards' included.
func (e *Engine) Pending() int { return e.Stats().Pending }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it would silently reorder causality, which in a network
// simulation always indicates a bug. Events at the same time run in FIFO
// scheduling order.
func (e *Engine) At(t Time, fn Event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	h := e.push(t, e.now, e.src, e.seq, fn)
	e.seq++
	return h
}

// push allocates a slot for fn and heaps it under an explicit key.
func (e *Engine) push(at, schedAt Time, src uint32, seq uint64, fn Event) Handle {
	idx := e.alloc()
	s := &e.slots[idx]
	s.fn = fn
	e.enqueue(eventKey{at: at, schedAt: schedAt, src: src, seq: seq}, idx)
	return Handle{e: e, idx: idx, gen: s.gen}
}

// enqueue heaps an entry — an arena slot or a typed record — under key k.
// Local scheduling derives k from the engine; cross-shard injection supplies
// the sender's key, so the receiving heap orders the event exactly as the
// sender stamped it.
func (e *Engine) enqueue(k eventKey, idx int32) {
	e.maxSched = max(e.maxSched, k.at)
	e.q.push(k, idx)
	e.peakPending = max(e.peakPending, e.q.n)
}

// Register adds a kind of typed event to e and returns its number: Post and
// Send of (k, id) on e run fn(id). It is set-up work. The shards of one
// partitioned engine must register their kinds in the same order, because
// Send carries only the number across: Run panics before the first event if
// two shards give one number different names.
func (e *Engine) Register(name string, fn func(id int32)) Kind {
	if e.sealed || len(e.kinds) == 1<<kindBits {
		panic(fmt.Sprintf("sim: Register(%q) after the run started or beyond %d kinds", name, 1<<kindBits))
	}
	e.kinds, e.names = append(e.kinds, fn), append(e.names, name)
	return Kind(len(e.kinds) - 1)
}

// Post schedules the typed event (k, id) at Now+d, under exactly the key
// After would give a closure scheduled in its place.
func (e *Engine) Post(d Duration, k Kind, id int32) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.enqueue(eventKey{at: e.now + d, schedAt: e.now, src: e.src, seq: e.seq}, e.typed(k, id))
	e.seq++
}

// typed packs (k, id) into a heap entry's idx. A kind e never registered, or
// an id outside [0, 2^28), panics where it is posted, not where it would fire.
func (e *Engine) typed(k Kind, id int32) int32 {
	if int(k) >= len(e.kinds) || uint32(id) >= 1<<(31-kindBits) {
		panic("sim: typed event of an unregistered kind, or with an id outside [0, 2^28)")
	}
	return ^(id<<kindBits | int32(k))
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from running. Cancelling an already
// fired or already cancelled event — or a handle from another engine — is
// a no-op. Cancel reports whether the event was actually descheduled.
func (e *Engine) Cancel(h Handle) bool {
	if e == nil || h.e != e || int(h.idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.idx]
	if s.gen != h.gen {
		return false // already fired, cancelled, or slot reused
	}
	s.cancelled = true
	s.fn = nil // what the callback captured is garbage now, not when the entry is popped
	s.gen++    // invalidate outstanding handles
	return true
}

// Stop makes Run/RunUntil return after the currently executing event of this
// engine's own queue completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next event of the engine's own queue, if any, and
// reports whether one ran.
func (e *Engine) Step() bool {
	for e.q.n > 0 {
		e.q.ready()
		at, idx := e.q.pop()
		if idx < 0 {
			e.now = at
			e.Processed++
			e.kinds[^idx&(1<<kindBits-1)](^idx >> kindBits)
			return true
		}
		s := &e.slots[idx]
		if s.cancelled {
			e.release(idx)
			continue
		}
		e.now = at
		fn := s.fn
		s.gen++ // the event is firing; invalidate handles
		e.release(idx)
		e.Processed++
		fn()
		return true
	}
	return false
}

// nextKey returns the key of the engine's next pending event, popping and
// releasing any cancelled entries it passes over.
func (e *Engine) nextKey() (eventKey, bool) {
	for e.q.n > 0 {
		next := e.q.peek()
		if next.idx >= 0 && e.slots[next.idx].cancelled {
			_, idx := e.q.pop()
			e.release(idx)
			continue
		}
		return next.key(), true
	}
	return eventKey{}, false
}

// Run executes events until every queue drains or Stop is called, and
// returns the time of the last event executed.
func (e *Engine) Run() Time {
	e.checkKinds()
	e.stopped = false
	for !e.stopped {
		if k, ok := e.nextKey(); ok {
			e.advanceShards(k)
			e.Step()
			continue
		}
		// Nothing of our own is left: drain the shards to their horizon.
		// Their events may extend it, so loop until they hold nothing.
		horizon := Time(-1)
		for _, sh := range e.shards {
			if _, ok := sh.eng.nextKey(); ok && sh.eng.maxSched > horizon {
				horizon = sh.eng.maxSched
			}
		}
		if horizon < 0 {
			break
		}
		e.runEpoch(maxKey(horizon))
	}
	for _, sh := range e.shards {
		if sh.eng.now > e.now {
			e.now = sh.eng.now
		}
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline — events scheduled exactly
// at the deadline do run — then advances every clock to the deadline (even
// if no event was pending there) and returns it. A run ended by Stop leaves
// the clocks at the event that called it: the events it did not reach are
// still queued in their future.
func (e *Engine) RunUntil(deadline Time) Time {
	e.checkKinds()
	e.stopped = false
	for !e.stopped {
		k, ok := e.nextKey()
		if !ok || k.at > deadline {
			e.advanceShards(maxKey(deadline))
			if e.now < deadline {
				e.now = deadline
			}
			break
		}
		e.advanceShards(k)
		e.Step()
	}
	return e.now
}

// Every schedules fn to run periodically with the given period, starting at
// now+period, until the returned stop function is called. A non-positive
// period panics. stop is idempotent: the first call cancels the outstanding
// tick and descheds the loop; further calls are no-ops even if the engine
// has since reused the tick's arena slot.
func (e *Engine) Every(period Duration, fn Event) (stop func()) { return every(e, period, fn) }

// every is the periodic-tick loop behind Every, over any Scheduler.
func every(s Scheduler, period Duration, fn Event) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	stopped := false
	var next Handle
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			next = s.After(period, tick)
		}
	}
	next = s.After(period, tick)
	return func() {
		if stopped {
			return
		}
		stopped = true
		s.Cancel(next)
	}
}

// pendingTimes returns the scheduled times of up to n pending events, in
// no particular order. It is a diagnostic aid for finding event leaks.
//
// Contract: n is clamped to the number of queued entries (n ≤ Pending()), so
// passing a larger n is safe and returns every pending time; negative n is
// treated as zero. Cancelled-but-unpopped entries count against the n
// inspected slots but are not reported, so the result can be shorter than
// min(n, Pending()).
func (e *Engine) pendingTimes(n int) []Time {
	n = max(0, min(n, e.q.n))
	out := make([]Time, 0, n)
	e.q.each(n, func(ent *heapEntry) {
		if ent.idx < 0 || !e.slots[ent.idx].cancelled {
			out = append(out, ent.at)
		}
	})
	return out
}
