package sim

import "sync/atomic"

// remoteEvent is a cross-shard handoff: a typed event's packed (kind, id)
// plus the full ordering key stamped by the sending shard. The receiving
// shard injects it into its heap under exactly this key, so the global event
// order is a pure function of (topology, seed) and never of worker
// interleaving. It holds no pointer.
type remoteEvent struct {
	at      Time
	schedAt Time
	seq     uint64
	src     uint32
	rec     int32
}

// ring is a bounded single-producer/single-consumer queue used for
// cross-shard event handoff. The producer is the sending shard's worker, the
// consumer the receiving shard's worker; neither ever takes a lock. head and
// tail are monotonically increasing positions; their atomic load/store pairs
// carry the happens-before edge that publishes entry contents.
type ring struct {
	buf  []remoteEvent
	mask uint64
	head atomic.Uint64 // next position to read; owned by the consumer
	tail atomic.Uint64 // next position to write; owned by the producer
}

// newRing returns a ring with capacity rounded up to a power of two.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{buf: make([]remoteEvent, n), mask: uint64(n - 1)}
}

// push appends ev and reports whether there was room. Producer-only.
func (r *ring) push(ev remoteEvent) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = ev
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest entry, if any. Consumer-only.
func (r *ring) pop() (remoteEvent, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return remoteEvent{}, false
	}
	ev := r.buf[h&r.mask]
	r.head.Store(h + 1)
	return ev, true
}

// empty reports whether the ring currently holds no entries. Safe from any
// goroutine; the answer is a snapshot.
func (r *ring) empty() bool { return r.head.Load() == r.tail.Load() }
