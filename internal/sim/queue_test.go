package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The tiered queue (heap.go) against the queue it replaced: one 4-ary heap
// holding every pending entry. flatQueue is that heap with the engine's
// lazy-cancel loop around it; the differentials below drive it and a real
// engine with the same operations and compare them after every one.
type flatQueue struct {
	h         eventHeap
	cancelled map[int32]bool
	now       Time
	processed uint64
	peak      int
	fired     []int32
}

func (o *flatQueue) push(k eventKey, id int32) {
	o.h.push(k, id)
	o.peak = max(o.peak, len(o.h))
}

// next drops the cancelled entries at the top, as Engine.nextKey does.
func (o *flatQueue) next() (eventKey, bool) {
	for len(o.h) > 0 && o.cancelled[o.h[0].idx] {
		o.h.pop()
	}
	if len(o.h) == 0 {
		return eventKey{}, false
	}
	return o.h[0].key(), true
}

func (o *flatQueue) step() {
	if _, ok := o.next(); ok {
		at, id := o.h.pop()
		o.now, o.processed, o.fired = at, o.processed+1, append(o.fired, id)
	}
}

func (o *flatQueue) runUntil(deadline Time) {
	for k, ok := o.next(); ok && k.at <= deadline; k, ok = o.next() {
		o.step()
	}
	o.now = max(o.now, deadline)
}

// liveTimes returns the times of the entries not cancelled, sorted.
func (o *flatQueue) liveTimes() []Time {
	var ts []Time
	for _, ent := range o.h {
		if !o.cancelled[ent.idx] {
			ts = append(ts, ent.at)
		}
	}
	slices.Sort(ts)
	return ts
}

const horizon = ringBuckets << bucketShift

// queueDelay draws how far ahead an entry is due: equal-time ties, the
// current bucket and its neighbours, the ring, beyond the horizon, and a
// second ahead (the better-path hunt's closures).
func queueDelay(rng *rand.Rand) Duration {
	switch rng.Intn(7) {
	case 0:
		return Duration(rng.Intn(3))
	case 1:
		return Duration(rng.Intn(24)) * Nanosecond
	case 2, 3:
		return Duration(rng.Int63n(int64(horizon)))
	case 4:
		return horizon + Duration(rng.Intn(4))
	case 5:
		return Duration(rng.Int63n(int64(Millisecond)))
	default:
		return Second + Duration(rng.Intn(1000))*Microsecond
	}
}

// TestQueueMatchesFlatHeap drives a plain engine and flatQueue through one
// random stream of closures and typed records under local and injected
// keys (ties on at, schedAt and src), cancels, steps, peeks followed by an
// injection below the curEnd the peek moved ahead, RunUntil deadlines
// inside a bucket and idle stretches longer than the ring's horizon. After
// every operation the firing order, the clock, Pending, PendingTimes,
// PeakPending and Processed must agree.
func TestQueueMatchesFlatHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []int32
		kind := e.Register("fire", func(id int32) { fired = append(fired, id) })
		o := &flatQueue{cancelled: map[int32]bool{}}
		var handles []Handle
		var ids []int32
		next := int32(0)
		var tiers [3]int // cur, ring, far: each must be exercised
		schedule := func(k eventKey) {
			k.seq, e.seq = e.seq, e.seq+1
			id := next
			next++
			if rng.Intn(2) == 0 {
				handles = append(handles, e.push(k.at, k.schedAt, k.src, k.seq, func() { fired = append(fired, id) }))
				ids = append(ids, id)
			} else {
				e.enqueue(k, e.typed(kind, id))
			}
			o.push(k, id)
		}
		for range 400 {
			schedule(eventKey{at: queueDelay(rng)})
		}
		for op := 0; op < 6000; op++ {
			switch r := rng.Intn(40); {
			case r < 12: // a local post
				schedule(eventKey{at: e.now + queueDelay(rng), schedAt: e.now})
			case r < 16: // an injection: another shard's key, tied on at
				k := tieKey(rng, e.now+queueDelay(rng), 0)
				k.schedAt = max(0, min(k.schedAt, e.now))
				schedule(k)
			case r < 19 && len(handles) > 0: // cancel, whichever tier holds it
				i := rng.Intn(len(handles))
				if e.Cancel(handles[i]) {
					o.cancelled[ids[i]] = true
				}
				handles, ids = slices.Delete(handles, i, i+1), slices.Delete(ids, i, i+1)
			case r < 21: // peek, then inject below where the peek left curEnd
				k, ok := e.nextKey()
				o.next()
				if ok && k.at > e.now {
					schedule(tieKey(rng, e.now+Duration(rng.Int63n(int64(k.at-e.now))), 0))
				}
			case r < 22: // a deadline inside a bucket
				d := e.now + Duration(rng.Int63n(int64(64<<bucketShift)))
				e.RunUntil(d)
				o.runUntil(d)
			case r == 22 && rng.Intn(4) == 0: // an idle stretch past the horizon
				d := e.now + 2*horizon + Duration(rng.Intn(1000))
				e.RunUntil(d)
				o.runUntil(d)
			default:
				e.Step()
				o.step()
			}
			ring := e.q.n - len(e.q.cur) - len(e.q.far)
			tiers[0], tiers[1], tiers[2] = max(tiers[0], len(e.q.cur)), max(tiers[1], ring), max(tiers[2], len(e.q.far))
			got := e.PendingTimes(e.Pending())
			slices.Sort(got)
			st := e.Stats()
			switch {
			case !slices.Equal(fired, o.fired):
				t.Fatalf("seed %d op %d: fired %v, flat heap %v", seed, op, tail(fired), tail(o.fired))
			case e.now != o.now:
				t.Fatalf("seed %d op %d: clock %v, flat heap %v", seed, op, e.now, o.now)
			case st.Pending != len(o.h) || st.PeakPending != o.peak || st.Processed != o.processed:
				t.Fatalf("seed %d op %d: pending %d peak %d processed %d, flat heap %d %d %d",
					seed, op, st.Pending, st.PeakPending, st.Processed, len(o.h), o.peak, o.processed)
			case !slices.Equal(got, o.liveTimes()):
				t.Fatalf("seed %d op %d: PendingTimes %d entries, flat heap %d", seed, op, len(got), len(o.liveTimes()))
			}
		}
		if len(fired) < 1000 || min(tiers[0], tiers[1], tiers[2]) < 20 {
			t.Fatalf("seed %d: only %d events fired, tiers peaked at %v", seed, len(fired), tiers)
		}
		t.Logf("seed %d: %d events fired, cur/ring/far peaked at %v", seed, len(fired), tiers)
	}
}

func tail(ids []int32) []int32 { return ids[max(0, len(ids)-5):] }

// TestQueueShardsMatchFlatHeap runs a random schedule on four meshed shards
// and a coordinator, at 0 and 4 workers: local posts and closures (some
// cancelled), idle stretches past the horizon, cross-shard Sends that land
// below a curEnd their receiver's window-end peek moved ahead, and
// coordinator events that post into the parked shards. At every RunUntil
// deadline (inside a bucket) each engine must have fired exactly the prefix
// a single heap of every key scheduled on it pops, up to the deadline, and
// hold the rest (PendingTimes); Pending and Processed must not depend on
// the worker count. (PeakPending may: with workers a Send reaches its
// receiver's queue when the receiver drains its ring, not when it is sent,
// in the single heap as in the tiers.)
func TestQueueShardsMatchFlatHeap(t *testing.T) {
	var ref []queueStats
	for _, workers := range []int{0, 4} {
		got := shardsAgainstFlat(t, workers)
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d workers: stats %v, 0 workers %v", workers, got, ref)
		}
	}
}

type queueStats struct{ pending, processed int }

func shardsAgainstFlat(t *testing.T, workers int) (out []queueStats) {
	const ns, budget = 4, 400
	type sched struct {
		key eventKey
		dst int
		id  int32
	}
	e := meshed(ns, workers, Microsecond)
	engs := make([]*Engine, ns+1)
	for s := range ns {
		engs[s] = e.shards[s].eng
	}
	engs[ns] = e
	// Per scheduling context (shard, or ns for the coordinator), so no two
	// workers write one slice.
	recs := make([][]sched, ns+1)
	cancelled := make([]map[int32]bool, ns+1)
	fired := make([][]int32, ns+1)
	decoys := make([][]Handle, ns)
	decoyIDs := make([][]int32, ns)
	made := make([]int32, ns+1)
	rngs := make([]*rand.Rand, ns+1)
	for s := range rngs {
		rngs[s] = rand.New(rand.NewSource(int64(17 + s)))
		cancelled[s] = map[int32]bool{}
	}
	newID := func(by int) int32 { made[by]++; return made[by]*(ns+1) + int32(by) }
	var kind Kind
	// post schedules on shard s from context by (s itself, or the
	// coordinator at a barrier) and records the key the shard stamps.
	post := func(by, s int, d Duration) {
		eng, id := engs[s], newID(by)
		recs[by] = append(recs[by], sched{eventKey{eng.now + d, eng.now, eng.src, eng.seq}, s, id})
		if by == s && rngs[by].Intn(3) == 0 {
			decoys[s] = append(decoys[s], eng.After(d, func() { fired[s] = append(fired[s], id) }))
			decoyIDs[s] = append(decoyIDs[s], id)
			return
		}
		eng.Post(d, kind, id)
	}
	fire := func(s int, id int32) {
		fired[s] = append(fired[s], id)
		r := rngs[s]
		for n := 1 + r.Intn(3); n > 0 && made[s] < budget; n-- {
			switch x := r.Intn(10); {
			case x < 3:
				peer := (s + 1 + r.Intn(ns-1)) % ns
				d := Microsecond + Duration(r.Int63n(int64(2*horizon)))
				eng, id := engs[s], newID(s)
				recs[s] = append(recs[s], sched{eventKey{eng.now + d, eng.now, eng.src, eng.seq}, peer, id})
				e.Send(s, peer, d, kind, id)
			case x < 4 && len(decoys[s]) > 0:
				i := r.Intn(len(decoys[s]))
				if engs[s].Cancel(decoys[s][i]) {
					cancelled[s][decoyIDs[s][i]] = true
				}
				decoys[s], decoyIDs[s] = slices.Delete(decoys[s], i, i+1), slices.Delete(decoyIDs[s], i, i+1)
			case x < 5:
				post(s, s, 3*horizon+Duration(r.Intn(5000))*Nanosecond)
			default:
				post(s, s, queueDelay(r)%(2*horizon))
			}
		}
	}
	for s := range ns {
		kind = e.Shard(s).Register("fire", func(id int32) { fire(s, id) })
		for range 3 {
			post(s, s, Duration(rngs[s].Intn(3000)))
		}
	}
	for k := 1; k <= 40; k++ {
		at, id := Time(k)*1700*Nanosecond+Time(k), newID(ns)
		recs[ns] = append(recs[ns], sched{eventKey{at, 0, ns, e.seq}, ns, id})
		e.At(at, func() {
			fired[ns] = append(fired[ns], id)
			post(ns, rngs[ns].Intn(ns), Duration(rngs[ns].Intn(2000))*Nanosecond)
		})
	}
	total := 0
	for deadline := Time(333); deadline < 200*Microsecond; deadline += 4321 * Nanosecond {
		e.RunUntil(deadline)
		processed := 0
		for d := range engs {
			var h eventHeap
			for by := range recs {
				for _, r := range recs[by] {
					if r.dst == d && !cancelled[by][r.id] {
						h.push(r.key, r.id)
					}
				}
			}
			var want []int32
			var rest []Time
			for len(h) > 0 {
				at, id := h.pop()
				if len(want) < len(fired[d]) {
					want = append(want, id)
				} else {
					rest = append(rest, at)
				}
			}
			if !slices.Equal(want, fired[d]) {
				t.Fatalf("%d workers, engine %d by %v: fired %v…, a flat heap pops %v…", workers, d, deadline, tail(fired[d]), tail(want))
			}
			if len(rest) > 0 && rest[0] <= deadline {
				t.Fatalf("%d workers, engine %d: %v still pending at deadline %v", workers, d, rest[0], deadline)
			}
			if d < ns {
				got := engs[d].PendingTimes(engs[d].Pending())
				slices.Sort(got)
				if !slices.Equal(got, rest) {
					t.Fatalf("%d workers, shard %d by %v: PendingTimes %d entries, flat heap %d", workers, d, deadline, len(got), len(rest))
				}
			}
			processed += len(fired[d])
		}
		st := e.Stats()
		if st.Processed != uint64(processed) {
			t.Fatalf("%d workers by %v: Processed %d, %d fired", workers, deadline, st.Processed, processed)
		}
		out = append(out, queueStats{st.Pending, processed})
		total = processed
	}
	if total < 1000 {
		t.Fatalf("%d workers: only %d events fired", workers, total)
	}
	return out
}
