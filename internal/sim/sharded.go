// Sharded parallel-in-time core. The simulated fabric is partitioned into
// logical shards (one per pod, fixed by the topology), each owning a private
// Engine — its own slab arena, event heap, sequence counter, and (at higher
// layers) RNG streams. Shards advance through fixed-width time windows under
// conservative-lookahead synchronization: the window width W is the minimum
// propagation delay of any link crossing a shard boundary, so an event
// executing in window k can only schedule work on another shard at time
// ≥ (k+1)·W. A shard may therefore execute window k as soon as every
// upstream shard has sealed window k−1 and its inbound rings have been
// drained — no global barrier, just per-shard atomic seal counters.
//
// Determinism: the event order inside each logical shard is governed by the
// full event key (at, schedAt, src, seq), every component of which is a pure
// function of (topology, seed) — never of worker count or thread timing.
// Cross-shard handoffs carry their sender-stamped key over SPSC rings, and
// shards sharing a worker have disjoint state, so output is bit-identical
// across `-shards 1 … N`.
//
// Globally scoped work (sampling ticks, chaos injections, experiment-level
// timers) lives on a coordinator engine. Before each coordinator event at
// key Kg, every shard free-runs to Kg — executes all local events with key
// < Kg — and parks; the coordinator then executes that one event with
// exclusive access to all shard state, mirroring a sequential engine where a
// barrier tick observes everything scheduled before it.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxKey is an upper bound on every real event key at or before the given
// time: real events always have schedAt ≤ at < MaxInt64.
func maxKey(at Time) eventKey {
	return eventKey{at: at, schedAt: math.MaxInt64, src: math.MaxUint32, seq: math.MaxUint64}
}

// nextKey returns the key of the engine's next pending event, popping and
// releasing any cancelled entries it passes over.
func (e *Engine) nextKey() (eventKey, bool) {
	for len(e.queue) > 0 {
		next := &e.queue[0]
		if e.slots[next.idx].cancelled {
			_, idx := e.heapPop()
			e.release(idx)
			continue
		}
		return next.key(), true
	}
	return eventKey{}, false
}

// runBounded executes pending events in key order while their key is
// strictly below bound, returning the number executed.
func (e *Engine) runBounded(bound eventKey) int {
	n := 0
	for {
		k, ok := e.nextKey()
		if !ok || !k.less(bound) {
			break
		}
		e.Step()
		n++
	}
	return n
}

// inject enqueues a remote event under its sender-stamped key. The window
// protocol guarantees remote arrivals land at or after the receiver's clock;
// a violation indicates a partitioning bug, so it panics loudly.
func (e *Engine) inject(ev remoteEvent) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: shard %d received event at %v before now %v (window protocol violated)", e.src, ev.at, e.now))
	}
	e.push(ev.at, ev.schedAt, ev.src, ev.seq, ev.fn)
}

// shard is one logical partition: its engine plus synchronization state.
type shard struct {
	eng *Engine
	id  int
	// sealed is the highest window this shard has fully processed;
	// −1 initially. Written by the owning worker (release), read by
	// downstream workers (acquire).
	sealed atomic.Int64
	// in[p] is the ring carrying events from shard p (nil if p has no
	// links into this shard); upstream lists the non-nil indices.
	in       []*ring
	out      []*ring
	upstream []int
	// health holds operational counters (see health.go); written with
	// atomics because Health() may snapshot them mid-epoch.
	health shardHealthCounters
}

// shardHealthCounters backs ShardHealth; see health.go for field semantics.
type shardHealthCounters struct {
	windowStalls atomic.Uint64
	sendSpins    atomic.Uint64
	seals        atomic.Uint64
	sealNanos    atomic.Uint64
	ringPeak     atomic.Uint64
}

// bumpRingPeak raises ringPeak to n if n exceeds the current maximum.
func (h *shardHealthCounters) bumpRingPeak(n uint64) {
	for {
		cur := h.ringPeak.Load()
		if n <= cur || h.ringPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Sharded is a parallel-in-time discrete-event driver over a set of logical
// shard engines plus a coordinator engine for global events. It satisfies
// Scheduler/Driver, with all Scheduler methods addressing the coordinator
// clock; shard-local scheduling goes through Shard(i). Scheduler methods
// must only be called during setup or from coordinator events, never from
// shard event callbacks.
type Sharded struct {
	global  *Engine
	shards  []*shard
	window  Duration
	workers int
	stopped bool
	started bool // at least one epoch has run; setup is over
}

var (
	_ Driver      = (*Sharded)(nil)
	_ StatsSource = (*Sharded)(nil)
)

// noCutWindow is the window width used when no link crosses a shard
// boundary (single shard): one window spans the whole simulation.
const noCutWindow = Duration(math.MaxInt64 / 4)

// NewSharded returns a driver with n logical shards executed by the given
// number of workers (clamped to [1, n]), synchronized on windows of width
// window — which must be at most the minimum propagation delay of any
// cross-shard link, and positive unless no link crosses shards (window ≤ 0
// with declared cross-shard connections is rejected by Connect).
func NewSharded(n, workers int, window Duration) *Sharded {
	if n < 1 {
		panic(fmt.Sprintf("sim: invalid shard count %d", n))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if window <= 0 {
		window = noCutWindow
	}
	s := &Sharded{
		global:  &Engine{src: uint32(n)},
		shards:  make([]*shard, n),
		window:  window,
		workers: workers,
	}
	for i := range s.shards {
		sh := &shard{eng: &Engine{src: uint32(i)}, id: i, in: make([]*ring, n), out: make([]*ring, n)}
		sh.sealed.Store(-1)
		s.shards[i] = sh
	}
	return s
}

// ringCapacity bounds the in-flight events per directed shard pair; a full
// ring back-pressures the sender, which keeps draining its own inbound rings
// while it spins so the pair cannot deadlock.
const ringCapacity = 1024

// Connect declares that events flow from shard src to shard dst (a cut link
// exists in that direction) and allocates the SPSC ring for the pair.
// Setup-time only. Idempotent.
func (s *Sharded) Connect(src, dst int) {
	if src == dst {
		return
	}
	if s.window == noCutWindow {
		panic("sim: cross-shard connection declared with no positive window width")
	}
	if s.shards[src].out[dst] != nil {
		return
	}
	r := newRing(ringCapacity)
	s.shards[src].out[dst] = r
	s.shards[dst].in[src] = r
	s.shards[dst].upstream = append(s.shards[dst].upstream, src)
}

// Shards returns the number of logical shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Workers returns the number of worker goroutines used per epoch.
func (s *Sharded) Workers() int { return s.workers }

// Window returns the conservative-lookahead window width.
func (s *Sharded) Window() Duration { return s.window }

// Shard returns shard i's local scheduler. Agents owned by shard i schedule
// on it; calls are legal during setup and from shard i's own events.
func (s *Sharded) Shard(i int) Scheduler { return s.shards[i].eng }

// Send schedules fn on shard dst at d after shard src's current time,
// stamping the event with src's key so the destination orders it
// deterministically. It must be called from shard src's execution context
// (or during setup / at a coordinator barrier, when all workers are parked).
// Cross-shard sends below the window width would break the lookahead
// invariant and panic.
func (s *Sharded) Send(src, dst int, d Duration, fn Event) {
	se := s.shards[src].eng
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	ev := remoteEvent{at: se.now + d, schedAt: se.now, seq: se.seq, src: se.src, fn: fn}
	se.seq++
	if src == dst {
		s.shards[dst].eng.inject(ev)
		return
	}
	if d < s.window {
		panic(fmt.Sprintf("sim: cross-shard send %d→%d with delay %v below window %v", src, dst, d, s.window))
	}
	if !s.started {
		// Setup or barrier context: workers parked, inject directly.
		s.shards[dst].eng.inject(ev)
		return
	}
	r := s.shards[src].out[dst]
	if r == nil {
		panic(fmt.Sprintf("sim: shards %d→%d were never connected", src, dst))
	}
	for !r.push(ev) {
		// Ring full: keep our own inbound rings flowing so the peer
		// (possibly blocked pushing to us) can make progress.
		s.shards[src].health.sendSpins.Add(1)
		s.drainShard(s.shards[src])
		runtime.Gosched()
	}
}

// drainShard moves everything currently in sh's inbound rings into its
// heap. Only sh's owning worker (or the coordinator at a barrier) may call.
func (s *Sharded) drainShard(sh *shard) {
	drained := uint64(0)
	for _, r := range sh.in {
		if r == nil {
			continue
		}
		for {
			ev, ok := r.pop()
			if !ok {
				break
			}
			sh.eng.inject(ev)
			drained++
		}
	}
	if drained > 0 {
		sh.health.bumpRingPeak(drained)
	}
}

// windowEnd returns (k+1)·W, saturating instead of overflowing.
func (s *Sharded) windowEnd(k int64) Time {
	if k+1 >= math.MaxInt64/int64(s.window) {
		return math.MaxInt64
	}
	return Time(k+1) * s.window
}

// tryAdvance attempts to process shard sh's next window without blocking:
// if any upstream shard has not yet sealed the previous window it returns
// immediately. Full windows are executed and sealed; the (typically partial)
// window containing bound.at is executed up to the bound and ends the
// shard's epoch (done=true) without sealing — its remainder belongs to later
// epochs. progressed reports whether any window was executed, so the caller
// can yield when a pass over its shards achieves nothing.
func (s *Sharded) tryAdvance(sh *shard, bound eventKey) (done, progressed bool) {
	k := sh.sealed.Load() + 1
	for _, up := range sh.upstream {
		if s.shards[up].sealed.Load() < k-1 {
			sh.health.windowStalls.Add(1)
			return false, false
		}
	}
	// All upstream seals for k−1 observed (acquire): every event any peer
	// will ever send into window k is already in the rings. Drain, then
	// the heap holds the complete window.
	s.drainShard(sh)
	wEnd := s.windowEnd(k)
	if wEnd <= bound.at {
		// Full window: everything below wEnd is also below the bound.
		start := time.Now()
		sh.eng.runBounded(eventKey{at: wEnd, schedAt: math.MinInt64})
		sh.health.sealNanos.Add(uint64(time.Since(start)))
		sh.health.seals.Add(1)
		sh.sealed.Store(k)
		return false, true
	}
	sh.eng.runBounded(bound)
	return true, true
}

// runWorkerEpoch advances all shards owned by one worker to the epoch
// bound, interleaving windows across them: each pass advances every ready
// shard by one window, so co-owned shards can satisfy each other's seal
// dependencies without blocking.
func (s *Sharded) runWorkerEpoch(owned []*shard, bound eventKey) {
	done := make([]bool, len(owned))
	remaining := len(owned)
	for remaining > 0 {
		progressed := false
		for i, sh := range owned {
			if done[i] {
				// Keep a finished shard's inbound rings flowing:
				// peers may still be filling them for future
				// windows.
				s.drainShard(sh)
				continue
			}
			d, p := s.tryAdvance(sh, bound)
			if d {
				done[i] = true
				remaining--
			}
			if p {
				progressed = true
			}
		}
		if !progressed && remaining > 0 {
			runtime.Gosched()
		}
	}
}

// runEpoch runs every shard forward to the bound in parallel and returns
// with all workers parked, rings drained, and exclusive access restored to
// the caller.
func (s *Sharded) runEpoch(bound eventKey) {
	s.started = true
	if len(s.shards) == 1 {
		s.drainShard(s.shards[0])
		s.shards[0].eng.runBounded(bound)
		return
	}
	var running atomic.Int64
	var allDone atomic.Bool
	running.Store(int64(s.workers))
	var parked sync.WaitGroup
	parked.Add(s.workers)
	for w := 0; w < s.workers; w++ {
		go func(w int) {
			defer parked.Done()
			// Shards are assigned to workers round-robin by ID.
			var owned []*shard
			for id := w; id < len(s.shards); id += s.workers {
				owned = append(owned, s.shards[id])
			}
			s.runWorkerEpoch(owned, bound)
			running.Add(-1)
			// Keep inbound rings flowing until every worker is done,
			// so a peer blocked on a full ring toward us can finish.
			for !allDone.Load() {
				for id := w; id < len(s.shards); id += s.workers {
					s.drainShard(s.shards[id])
				}
				runtime.Gosched()
			}
		}(w)
	}
	for running.Load() != 0 {
		runtime.Gosched()
	}
	allDone.Store(true)
	parked.Wait()
	// Exclusive again: bank whatever is still in flight for future
	// windows so horizon bookkeeping sees it.
	for _, sh := range s.shards {
		s.drainShard(sh)
	}
}

// clampShards advances every shard clock to t (never backwards). Called at
// a barrier after an epoch bounded by t: all shard events before t have
// executed, so the jump cannot skip work.
func (s *Sharded) clampShards(t Time) {
	for _, sh := range s.shards {
		if sh.eng.now < t {
			sh.eng.now = t
		}
	}
}

// Now returns the coordinator clock.
func (s *Sharded) Now() Time { return s.global.Now() }

// At schedules a global event on the coordinator engine; it runs with every
// shard parked at its key, with exclusive access to all shard state.
func (s *Sharded) At(t Time, fn Event) Handle { return s.global.At(t, fn) }

// After schedules a global event d after the coordinator clock.
func (s *Sharded) After(d Duration, fn Event) Handle { return s.global.After(d, fn) }

// Cancel deschedules a pending global event.
func (s *Sharded) Cancel(h Handle) bool { return s.global.Cancel(h) }

// Every runs fn as a periodic global event until stop is called.
func (s *Sharded) Every(period Duration, fn Event) (stop func()) {
	return s.global.Every(period, fn)
}

// Stop makes Run/RunUntil return at the next epoch boundary.
func (s *Sharded) Stop() { s.stopped = true }

// Pending returns the total number of queued events across the coordinator
// and all shards. Barrier/setup context only.
func (s *Sharded) Pending() int {
	n := s.global.Pending()
	for _, sh := range s.shards {
		n += sh.eng.Pending()
	}
	return n
}

// step runs shards up to the next coordinator event, executes it, and
// clamps shard clocks to its time. Precondition: the coordinator queue is
// non-empty and its head is at or before any caller-imposed deadline.
func (s *Sharded) step(gk eventKey) {
	s.runEpoch(gk)
	s.clampShards(gk.at)
	s.global.Step()
}

// RunUntil executes all events (shard and global) with time ≤ deadline,
// then advances every clock to the deadline and returns it.
func (s *Sharded) RunUntil(deadline Time) Time {
	s.stopped = false
	for !s.stopped {
		gk, ok := s.global.nextKey()
		if !ok || gk.at > deadline {
			break
		}
		s.step(gk)
	}
	if !s.stopped {
		s.runEpoch(maxKey(deadline))
		s.clampShards(deadline)
	}
	if s.global.now < deadline {
		s.global.now = deadline
	}
	return s.global.now
}

// Run executes events until every queue and ring drains (or Stop is
// called), returning the time of the last event processed.
func (s *Sharded) Run() Time {
	s.stopped = false
	for !s.stopped {
		if gk, ok := s.global.nextKey(); ok {
			s.step(gk)
			continue
		}
		// No global events: drain the shards to their horizon. New
		// shard events may extend it, so loop until nothing is left.
		horizon := Time(-1)
		for _, sh := range s.shards {
			if _, ok := sh.eng.nextKey(); ok && sh.eng.maxSched > horizon {
				horizon = sh.eng.maxSched
			}
		}
		if horizon < 0 {
			break
		}
		s.runEpoch(maxKey(horizon))
	}
	end := s.global.now
	for _, sh := range s.shards {
		if sh.eng.now > end {
			end = sh.eng.now
		}
	}
	if s.global.now < end {
		s.global.now = end
	}
	return end
}

// Stats aggregates scheduling statistics across the coordinator and all
// shards. Now is the coordinator clock; counters are sums, which are
// worker-count independent because each component engine's activity is.
func (s *Sharded) Stats() EngineStats {
	st := s.global.Stats()
	for _, sh := range s.shards {
		es := sh.eng.Stats()
		st.Processed += es.Processed
		st.Pending += es.Pending
		st.PeakPending += es.PeakPending
		st.ArenaSlots += es.ArenaSlots
	}
	return st
}
