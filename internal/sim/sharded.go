// The partitioned engine: parallel-in-time execution of logical shards. The
// simulated fabric is partitioned into logical shards (one per pod, fixed by
// the topology), each a child Engine — its own slab arena, event heap,
// sequence counter, and (at higher layers) RNG streams. Shards advance
// through fixed-width time windows under conservative-lookahead
// synchronization: the window width W is the minimum propagation delay of any
// link crossing a shard boundary, so an event executing in window k can only
// schedule work on another shard at time ≥ (k+1)·W. A shard may therefore
// execute window k as soon as every upstream shard has sealed window k−1 and
// its inbound events have been banked — no global barrier, just per-shard
// atomic seal counters.
//
// Determinism: the event order inside each logical shard is governed by the
// full event key (at, schedAt, src, seq), every component of which is a pure
// function of (topology, seed) — never of worker count or thread timing.
// Cross-shard handoffs carry their sender-stamped key, and shards sharing a
// worker have disjoint state, so output is bit-identical for every worker
// count.
//
// Workers are an execution detail of that one protocol. With zero workers the
// goroutine that called Run/RunUntil executes every shard's windows itself,
// round-robin, and a cross-shard send goes straight into the destination
// heap; with N ≥ 1 workers the shards are dealt round-robin to N goroutines
// per epoch and cross-shard sends travel over SPSC rings.
//
// Globally scoped work (sampling ticks, chaos injections, experiment-level
// timers) lives on the partitioned engine's own queue: it is the coordinator.
// Before each coordinator event at key Kg, every shard runs to Kg — executes
// all local events with key < Kg — and parks; the coordinator then executes
// that one event with exclusive access to all shard state, exactly where a
// single heap holding every event would have placed it.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxKey is an upper bound on every real event key at or before the given
// time: real events always have schedAt ≤ at < MaxInt64.
func maxKey(at Time) eventKey {
	return eventKey{at: at, schedAt: math.MaxInt64, src: math.MaxUint32, seq: math.MaxUint64}
}

// runBounded executes pending events in key order while their key is
// strictly below bound.
func (e *Engine) runBounded(bound eventKey) {
	for {
		k, ok := e.nextKey()
		if !ok || !k.less(bound) {
			return
		}
		e.Step()
	}
}

// inject enqueues a remote event under its sender-stamped key. The window
// protocol guarantees remote arrivals land at or after the receiver's clock;
// a violation indicates a partitioning bug, so it panics loudly.
func (e *Engine) inject(ev remoteEvent) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: shard %d received event at %v before now %v (window protocol violated)", e.src, ev.at, e.now))
	}
	e.enqueue(eventKey{at: ev.at, schedAt: ev.schedAt, src: ev.src, seq: ev.seq}, ev.rec)
}

// checkKinds seals the typed-event kinds of e's shards, panicking if two of
// them registered one number under different names: a Send would run the
// wrong handler. Run and RunUntil call it; only the first call checks.
func (e *Engine) checkKinds() {
	if len(e.shards) == 0 || e.shards[0].eng.sealed {
		return
	}
	var ref []string // the longest list so far, of which every other is a prefix
	for i, sh := range e.shards {
		sh.eng.sealed, sh.eng.q.setup = true, false
		if n := min(len(ref), len(sh.eng.names)); !slices.Equal(ref[:n], sh.eng.names[:n]) {
			panic(fmt.Sprintf("sim: shard %d numbers its kinds %q, another shard %q", i, sh.eng.names, ref))
		}
		if len(sh.eng.names) > len(ref) {
			ref = sh.eng.names
		}
	}
}

// shard is one logical partition: its engine plus synchronization state.
type shard struct {
	eng *Engine
	// sealed is the highest window this shard has fully processed;
	// −1 initially. Written by the owning worker (release), read by
	// downstream workers (acquire).
	sealed atomic.Int64
	// upstream lists the shards with links into this one; in[p] and out[p]
	// are the rings from and to shard p (nil where there is no link, and
	// everywhere when no worker goroutines run).
	upstream []int
	in       []*ring
	out      []*ring
	// done marks the shard parked at the current epoch's bound; owned by
	// the goroutine executing the shard.
	done bool
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

// noCutWindow is the window width used when no link crosses a shard
// boundary (single shard): one window spans the whole simulation.
const noCutWindow = Duration(math.MaxInt64 / 4)

// Partition splits e into n logical shards, of which e becomes the
// coordinator: what is scheduled on e itself (stamped src = n) runs at
// barriers between shard events, in key order. The shards are executed by
// the given number of worker goroutines per epoch (clamped to n; 0, and any
// count for a single shard, runs them inline on the goroutine driving e) and
// synchronized on windows of width window — which must be at most the
// minimum propagation delay of any cross-shard link, and positive unless no
// link crosses shards (window ≤ 0 with declared cross-shard connections is
// rejected by Connect). Set-up only: e must be fresh.
func (e *Engine) Partition(n, workers int, window Duration) {
	if n < 1 || e.seq != 0 || e.shards != nil {
		panic(fmt.Sprintf("sim: Partition(%d) needs n ≥ 1 and a fresh, unpartitioned engine", n))
	}
	if window <= 0 {
		window = noCutWindow
	}
	if n == 1 {
		workers = 0 // nothing to run beside
	}
	e.src = uint32(n)
	e.window = window
	e.shards = make([]*shard, n)
	for i := range e.shards {
		sh := &shard{eng: &Engine{src: uint32(i), q: queue{setup: true}}, in: make([]*ring, n), out: make([]*ring, n)}
		sh.sealed.Store(-1)
		e.shards[i] = sh
	}
	// Shards are dealt to workers round-robin by ID.
	e.crew = make([][]*shard, max(0, min(workers, n)))
	for w := range e.crew {
		for id := w; id < n; id += len(e.crew) {
			e.crew[w] = append(e.crew[w], e.shards[id])
		}
	}
}

// ringCapacity bounds the in-flight events per directed shard pair; a full
// ring back-pressures the sender, which keeps draining its own inbound rings
// while it spins so the pair cannot deadlock.
const ringCapacity = 1024

// Connect declares that events flow from shard src to shard dst (a cut link
// exists in that direction): dst will wait for src's seals, and worker
// goroutines get an SPSC ring for the pair. Set-up only. Idempotent.
func (e *Engine) Connect(src, dst int) {
	to := e.shards[dst]
	if src == dst || slices.Contains(to.upstream, src) {
		return
	}
	if e.window == noCutWindow {
		panic("sim: cross-shard connection declared with no positive window width")
	}
	to.upstream = append(to.upstream, src)
	if len(e.crew) > 0 {
		r := newRing(ringCapacity)
		e.shards[src].out[dst] = r
		to.in[src] = r
	}
}

// Shards returns the number of logical shards (0 for a plain engine).
func (e *Engine) Shards() int { return len(e.shards) }

// Workers returns the number of worker goroutines used per epoch.
func (e *Engine) Workers() int { return len(e.crew) }

// Window returns the conservative-lookahead window width.
func (e *Engine) Window() Duration { return e.window }

// Shard returns shard i's local scheduler. Agents owned by shard i schedule
// on it; calls are legal during setup and from shard i's own events.
func (e *Engine) Shard(i int) Scheduler { return e.shards[i].eng }

// Send schedules the typed event (k, id) on shard dst at d after shard src's
// current time, stamping it with src's key so the destination orders it
// deterministically; dst runs the handler it registered as k. It must be
// called from shard src's execution context (or during setup / at a
// coordinator barrier, when all workers are parked).
// Cross-shard sends below the window width would break the lookahead
// invariant and panic, as do sends between shards never connected.
func (e *Engine) Send(src, dst int, d Duration, k Kind, id int32) {
	from, to := e.shards[src], e.shards[dst]
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	ev := remoteEvent{at: from.eng.now + d, schedAt: from.eng.now, seq: from.eng.seq, src: from.eng.src, rec: to.eng.typed(k, id)}
	from.eng.seq++
	if src != dst {
		if d < e.window {
			panic(fmt.Sprintf("sim: cross-shard send %d→%d with delay %v below window %v", src, dst, d, e.window))
		}
		if !slices.Contains(to.upstream, src) {
			panic(fmt.Sprintf("sim: shards %d→%d were never connected", src, dst))
		}
	}
	r := from.out[dst]
	if r == nil || !e.started {
		// Nothing executes dst beside the caller — it is the caller's own
		// shard, the shards run inline, or no worker epoch has run yet
		// (set-up) — so the event goes straight into its heap.
		to.eng.inject(ev)
		return
	}
	for !r.push(ev) {
		// Ring full: keep our own inbound rings flowing so the peer
		// (possibly blocked pushing to us) can make progress.
		from.health.sendSpins.Add(1)
		drainShard(from)
		runtime.Gosched()
	}
}

// drainShard moves everything currently in sh's inbound rings into its
// heap. Only sh's owning worker (or the coordinator at a barrier) may call.
func drainShard(sh *shard) {
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
func (e *Engine) windowEnd(k int64) Time {
	if k+1 >= math.MaxInt64/int64(e.window) {
		return math.MaxInt64
	}
	return Time(k+1) * e.window
}

// tryAdvance attempts to process shard sh's next window without blocking:
// if any upstream shard has not yet sealed the previous window it returns
// immediately. Full windows are executed and sealed; the (typically partial)
// window containing bound.at is executed up to the bound and ends the
// shard's epoch (sh.done) without sealing — its remainder belongs to later
// epochs. progressed reports whether any window was executed, so the caller
// can yield when a pass over its shards achieves nothing.
func (e *Engine) tryAdvance(sh *shard, bound eventKey) (progressed bool) {
	k := sh.sealed.Load() + 1
	for _, up := range sh.upstream {
		if e.shards[up].sealed.Load() < k-1 {
			sh.health.windowStalls.Add(1)
			return false
		}
	}
	// All upstream seals for k−1 observed (acquire): every event any peer
	// will ever send into window k is already in the rings. Drain, then
	// the heap holds the complete window.
	drainShard(sh)
	wEnd := e.windowEnd(k)
	if wEnd <= bound.at {
		// Full window: everything below wEnd is also below the bound.
		start := time.Now()
		sh.eng.runBounded(eventKey{at: wEnd, schedAt: math.MinInt64})
		sh.health.sealNanos.Add(uint64(time.Since(start)))
		sh.health.seals.Add(1)
		sh.sealed.Store(k)
		return true
	}
	sh.eng.runBounded(bound)
	sh.done = true
	return true
}

// runWorkerEpoch advances all shards owned by one worker to the epoch
// bound, interleaving windows across them: each pass advances every ready
// shard by one window, so co-owned shards can satisfy each other's seal
// dependencies without blocking.
func (e *Engine) runWorkerEpoch(owned []*shard, bound eventKey) {
	for _, sh := range owned {
		sh.done = false
	}
	for remaining := len(owned); remaining > 0; {
		progressed := false
		for _, sh := range owned {
			if sh.done {
				// Keep a finished shard's inbound rings flowing:
				// peers may still be filling them for future
				// windows.
				drainShard(sh)
				continue
			}
			if e.tryAdvance(sh, bound) {
				progressed = true
			}
			if sh.done {
				remaining--
			}
		}
		if !progressed && remaining > 0 {
			runtime.Gosched()
		}
	}
}

// runEpoch runs every shard forward to the bound and returns with all
// workers parked, rings drained, and exclusive access restored to the
// caller. With no workers the caller is the one worker and owns every shard
// — none at all on a plain engine, whose epochs are this empty loop.
func (e *Engine) runEpoch(bound eventKey) {
	if len(e.crew) == 0 {
		e.runWorkerEpoch(e.shards, bound)
		return
	}
	e.started = true
	var running atomic.Int64
	var allDone atomic.Bool
	running.Store(int64(len(e.crew)))
	var parked sync.WaitGroup
	parked.Add(len(e.crew))
	for _, owned := range e.crew {
		go func() {
			defer parked.Done()
			e.runWorkerEpoch(owned, bound)
			running.Add(-1)
			// Keep inbound rings flowing until every worker is done,
			// so a peer blocked on a full ring toward us can finish.
			for !allDone.Load() {
				for _, sh := range owned {
					drainShard(sh)
				}
				runtime.Gosched()
			}
		}()
	}
	for running.Load() != 0 {
		runtime.Gosched()
	}
	allDone.Store(true)
	parked.Wait()
	// Exclusive again: bank whatever is still in flight for future
	// windows so horizon bookkeeping sees it.
	for _, sh := range e.shards {
		drainShard(sh)
	}
}

// advanceShards runs every shard up to the bound and then moves the shard
// clocks to its time (never backwards): all shard events before it have
// executed, so the jump cannot skip work.
func (e *Engine) advanceShards(bound eventKey) {
	e.runEpoch(bound)
	for _, sh := range e.shards {
		if sh.eng.now < bound.at {
			sh.eng.now = bound.at
		}
	}
}
