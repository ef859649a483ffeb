package sim

// The event queue: one monomorphic 4-ary min-heap whose entries carry the
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

// heapPush queues entry idx (an arena slot or a typed record) under key k.
func (e *Engine) heapPush(k eventKey, idx int32) {
	e.queue = append(e.queue, heapEntry{})
	h := e.queue
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

// heapPop removes the minimum entry and returns its time and idx.
// The queue must be non-empty.
func (e *Engine) heapPop() (at Time, idx int32) {
	h := e.queue
	at, idx = h[0].at, h[0].idx
	n := len(h) - 1
	e.queue = h[:n]
	if n == 0 {
		return at, idx
	}
	// Sift the hole at the root down until the former last entry fits. It
	// is read and written back field by field, like the entry heapPush
	// writes: at depth 2 it *is* that entry, stored a moment ago.
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
