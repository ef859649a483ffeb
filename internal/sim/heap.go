package sim

import (
	"math/bits"
	"slices"
)

// The event queue: three tiers that share one order (queue, below), two of
// them the monomorphic 4-ary min-heap here, whose entries carry the
// ordering key inline, so a comparison reads the heap's own backing array
// and never the event arena.
//
// A 4-ary layout halves the tree depth of a binary heap: sift-up does half
// the comparisons, and the four 32-byte children a sift-down level inspects
// sit in two adjacent cache lines. Both sifts move a hole instead of
// swapping: the travelling key stays in registers and each level costs one
// 32-byte store. A level with all four children — every level but the last
// — is compared through a fixed-size window, without a loop or bounds
// checks.
//
// Measured against the heap of int32 arena indices this replaced, whose
// comparator dereferenced slots[] twice per comparison (2-vCPU Xeon
// 2.1 GHz, go1.24): BenchmarkEngineChurn1k 177 → 115 ns with the key
// inline, → 72 ns with the unrolled level; the hold model at depth 64 k
// (bench/ sim.hold_ns_d64k) 445–550 → 270–320 ns; depth 1 and 2 unchanged
// (17 and 18 ns). Two shapes that look equivalent and are not:
//
//   - the former generic quadPush/quadPop[T, L] instantiated with this 32 B
//     entry is *slower* than the index heap it was meant to beat (Churn1k
//     177 → 220–277 ns, hold at 64 k 445 → 500–630 ns): one gcshape
//     instantiation serves every comparator, so Less is a dictionary call
//     taking two 32 B arguments by value, and every level swaps 2 × 32 B;
//   - a monomorphic heap that takes the pushed entry and returns the popped
//     entry *by value* regresses the depth-1 path every idle port and timer
//     lives on (BenchmarkEngineScheduleFire 17 → 35–45 ns): push stores the
//     fields as scalars, the pop that follows at once loads them back as
//     one vector copy, and the store-to-load forward stalls. Hence an
//     eventKey (four fields: it travels in registers) and idx in, (at, idx)
//     out, and field-by-field access to any entry that may be that fresh.

// eventKey is the full ordering key of a scheduled event, and less the one
// definition of event order. For a plain Engine it is provably the classic
// (at, seq) FIFO order: src is constant and seq increases monotonically with
// scheduling time, so schedAt never reorders equal-time events. The extra
// components only matter on a partitioned engine, where seq counters are per
// shard: schedAt and src make the key a total order over events from
// different shards that is independent of how shard engines are interleaved
// onto workers.
type eventKey struct {
	at      Time
	schedAt Time
	src     uint32
	seq     uint64
}

func (k eventKey) less(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.schedAt != o.schedAt {
		return k.schedAt < o.schedAt
	}
	if k.src != o.src {
		return k.src < o.src
	}
	return k.seq < o.seq
}

// heapEntry is one queued event: its key and either the arena slot holding
// its callback or, negative, its packed typed record (sim.go). 32 bytes,
// pointer-free.
type heapEntry struct {
	at      Time
	schedAt Time
	seq     uint64
	src     uint32
	idx     int32
}

func (h *heapEntry) key() eventKey {
	return eventKey{at: h.at, schedAt: h.schedAt, src: h.src, seq: h.seq}
}

// set writes the entry field by field (see the second dead end above).
func (h *heapEntry) set(k eventKey, idx int32) {
	h.at, h.schedAt, h.seq, h.src, h.idx = k.at, k.schedAt, k.seq, k.src, idx
}

// eventHeap is the 4-ary min-heap both heap tiers of a queue run on.
type eventHeap []heapEntry

// push queues entry idx (an arena slot or a typed record) under key k.
func (q *eventHeap) push(k eventKey, idx int32) {
	*q = append(*q, heapEntry{})
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(h[p].key()) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i].set(k, idx)
}

// pop removes the minimum entry and returns its time and idx.
// The heap must be non-empty.
func (q *eventHeap) pop() (at Time, idx int32) {
	h := *q
	at, idx = h[0].at, h[0].idx
	n := len(h) - 1
	*q = h[:n]
	if n == 0 {
		return at, idx
	}
	// Sift the hole at the root down until the former last entry fits. It
	// is read and written back field by field, like the entry push writes:
	// at depth 2 it *is* that entry, stored a moment ago.
	k, lastIdx := h[n].key(), h[n].idx
	h = h[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			c := h[first : first+4 : first+4]
			b := 0
			if c[1].key().less(c[0].key()) {
				b = 1
			}
			if c[2].key().less(c[b].key()) {
				b = 2
			}
			if c[3].key().less(c[b].key()) {
				b = 3
			}
			best = first + b
		} else {
			for c := first + 1; c < n; c++ {
				if h[c].key().less(h[best].key()) {
					best = c
				}
			}
		}
		if !h[best].key().less(k) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i].set(k, lastIdx)
	return at, idx
}

// The queue's tiers. A ring bucket spans 2^bucketShift ps (8.192 ns) and
// the ring ringBuckets of them (8.4 µs); ring nodes live in chunks of
// 2^chunkShift that are allocated once and never copied.
const (
	bucketShift = 13
	ringBuckets = 1024
	ringMask    = ringBuckets - 1
	chunkShift  = 8
)

// ringNode is a ring entry: a heap entry and the next node of its bucket
// (or of the free list), 1-based; 0 ends the list.
type ringNode struct {
	ent  heapEntry
	next int32
}

// queue is an engine's pending events in three tiers that share one order.
// With cb the bucket number curEnd / 2^bucketShift:
//
//	cur  < curEnd ≤ ring < curEnd + horizon ≤ far
//
// so cur's minimum is the queue's whenever cur holds anything. An insert
// goes to the tier its time falls in: cur and far are heaps, a ring insert
// is an O(1) push onto its bucket's list. When cur runs dry, refill drains
// the next non-empty bucket into it and moves the far entries the ring now
// reaches into the ring: no entry moves more than twice, and cb only grows,
// so an insert below a curEnd that a peek moved ahead still lands in cur.
// The zero value is an empty queue. DESIGN.md "The queue holds what is
// due" has the bucket sweep and the designs measured and dropped.
type queue struct {
	cur    eventHeap
	n      int  // entries in all three tiers
	cb     Time // curEnd in buckets: cur holds every entry below cb<<bucketShift
	far    eventHeap
	chunks []*[1 << chunkShift]ringNode
	free   int32 // free-list head, 1-based; 0 = empty
	used   int32 // nodes ever handed out
	// setup is set on a shard's queue until its first run. Meanwhile a
	// far push keeps room in far for at least twice the pending count: a
	// job's shard queue peaks at about twice what set-up leaves it, nearly
	// all of that far (1 152 → 2 405 entries on fabric1k_backlog, 1 090 →
	// 2 359 on clos128_rpc), so the run does not regrow far. Short of
	// that, far grows to four times the count, so a set-up (or an engine
	// whose shards run late) regrows it only at doublings.
	setup bool
	bits  [ringBuckets / 64]uint64 // the non-empty buckets
	head  [ringBuckets]int32       // each bucket's list
}

// push queues entry idx under key k.
func (q *queue) push(k eventKey, idx int32) {
	q.n++
	if k.at>>bucketShift < q.cb {
		q.cur.push(k, idx)
		return
	}
	q.pushAhead(k, idx)
}

// pushAhead queues an entry due at or after curEnd.
func (q *queue) pushAhead(k eventKey, idx int32) {
	switch b := k.at >> bucketShift; {
	case q.n == 1 && b-k.schedAt>>bucketShift <= 1:
		// The queue was empty and k is due within a bucket of when it was
		// scheduled: its bucket becomes the current one. (One due later
		// would take into cur everything posted before it.)
		q.cb = b + 1
		q.cur.push(k, idx)
	case b-q.cb < ringBuckets:
		q.ringAdd(k, idx)
	default:
		if q.setup && cap(q.far) < 2*q.n {
			q.far = slices.Grow(q.far, 4*q.n-len(q.far))
		}
		q.far.push(k, idx)
	}
}

// peek returns the queue's minimum entry. The queue must be non-empty.
func (q *queue) peek() *heapEntry {
	q.ready()
	return &q.cur[0]
}

// ready makes cur hold the queue's minimum. The queue must be non-empty.
func (q *queue) ready() {
	if len(q.cur) == 0 {
		q.refill()
	}
}

// pop removes the minimum entry. The queue must be ready.
func (q *queue) pop() (at Time, idx int32) {
	q.n--
	return q.cur.pop()
}

// refill drains the next non-empty bucket into the empty current heap; if
// the ring is empty too, it jumps to the far heap's earliest bucket.
func (q *queue) refill() {
	if q.n == len(q.far) { // cur is empty, so the ring holds n − len(far)
		q.cb = q.far[0].at>>bucketShift + 1
		q.pullFar()
		return
	}
	s := int(q.cb & ringMask)
	for w, i := s>>6, 0; ; w, i = (w+1)%len(q.bits), i+1 {
		m := q.bits[w]
		if i == 0 {
			m &= ^uint64(0) << (s & 63)
		}
		if m == 0 {
			continue
		}
		s = w<<6 | bits.TrailingZeros64(m)
		break
	}
	for i := q.head[s]; i != 0; {
		nd := q.node(i)
		q.cur.push(nd.ent.key(), nd.ent.idx)
		next := nd.next
		nd.next, q.free = q.free, i
		i = next
	}
	q.head[s] = 0
	q.bits[s>>6] &^= 1 << (s & 63)
	q.cb += Time((s-int(q.cb&ringMask))&ringMask) + 1
	q.pullFar()
}

// pullFar moves the far entries below curEnd into cur and those the ring
// reaches into the ring.
func (q *queue) pullFar() {
	for len(q.far) > 0 {
		top := q.far[0]
		b := top.at >> bucketShift
		if b-q.cb >= ringBuckets {
			return
		}
		q.far.pop()
		if b < q.cb {
			q.cur.push(top.key(), top.idx)
		} else {
			q.ringAdd(top.key(), top.idx)
		}
	}
}

// ringAdd pushes entry idx onto the list of k's bucket.
func (q *queue) ringAdd(k eventKey, idx int32) {
	i := q.free
	if i != 0 {
		q.free = q.node(i).next
	} else {
		if int(q.used) == len(q.chunks)<<chunkShift {
			q.chunks = append(q.chunks, new([1 << chunkShift]ringNode))
		}
		q.used++
		i = q.used
	}
	nd := q.node(i)
	s := k.at >> bucketShift & ringMask
	nd.ent.set(k, idx)
	nd.next, q.head[s] = q.head[s], i
	q.bits[s>>6] |= 1 << (s & 63)
}

// node returns ring node i (1-based).
func (q *queue) node(i int32) *ringNode {
	i--
	return &q.chunks[i>>chunkShift][i&(1<<chunkShift-1)]
}

// each calls fn on up to n queued entries: the current heap's, the ring's,
// then the far heap's.
func (q *queue) each(n int, fn func(*heapEntry)) {
	heap := func(h eventHeap) {
		for i := 0; i < len(h) && n > 0; i, n = i+1, n-1 {
			fn(&h[i])
		}
	}
	heap(q.cur)
	for s := 0; s < ringBuckets && n > 0; s++ {
		for i := q.head[s]; i != 0 && n > 0; i, n = q.node(i).next, n-1 {
			fn(&q.node(i).ent)
		}
	}
	heap(q.far)
}
