package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// tieKey draws a key from a deliberately tiny (at, schedAt, src) space so
// that ties on at, and on (at, schedAt) across several src, are the common
// case — as they are on the symmetric fabric, where every host's tick and
// every equal-length link's arrival land on the same picosecond. seq is the
// caller's unique tie-break.
func tieKey(rng *rand.Rand, base Time, seq uint64) eventKey {
	at := base + Time(rng.Intn(4))
	return eventKey{at: at, schedAt: at - Time(rng.Intn(3)), src: uint32(rng.Intn(5)), seq: seq}
}

func sortKeys(ks []eventKey) {
	sort.Slice(ks, func(i, j int) bool { return ks[i].less(ks[j]) })
}

// Property: pushing any multiset of keys and popping them all yields the
// order of eventKey.less — i.e. the 4-ary heap is a correct priority queue.
func TestQuadHeapSortsProperty(t *testing.T) {
	f := func(ats []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		want := make([]eventKey, len(ats))
		for i, a := range ats {
			want[i] = tieKey(rng, Time(a%8), uint64(i))
			h.push(want[i], int32(i))
		}
		sortKeys(want)
		for _, w := range want {
			if len(h) == 0 || h[0].key() != w {
				return false
			}
			at, idx := h.pop()
			if at != w.at || uint64(idx) != w.seq {
				return false
			}
		}
		return len(h) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Interleaved pushes and pops must always pop the current minimum.
func TestQuadHeapInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var mirror []eventKey
	for op := 0; op < 5000; op++ {
		if len(mirror) == 0 || rng.Intn(3) > 0 {
			k := tieKey(rng, Time(rng.Intn(50)), uint64(op))
			h.push(k, int32(op))
			mirror = append(mirror, k)
		} else {
			at, idx := h.pop()
			sortKeys(mirror)
			if w := mirror[0]; at != w.at || uint64(idx) != w.seq {
				t.Fatalf("op %d: popped (at %v, idx %d), want min %+v", op, at, idx, w)
			}
			mirror = mirror[1:]
		}
		if len(h) != len(mirror) {
			t.Fatalf("op %d: heap holds %d entries, mirror %d", op, len(h), len(mirror))
		}
	}
}

// The engine against a reference model: random push / cancel / pop, the
// model being "the live keys, sorted by eventKey.less". Every fired event
// must be the model's minimum, cancelled events must never fire, and the
// peeks (nextKey, PendingTimes) must agree with the model too.
func TestEngineMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New()
	type live struct {
		key eventKey
		h   Handle
	}
	var model []live
	var seqs [5]uint64
	var fired eventKey
	firedOK := false
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(model) == 0: // push
			k := tieKey(rng, e.now+2, 0)
			k.seq = seqs[k.src]
			seqs[k.src]++
			k2 := k
			h := e.push(k.at, k.schedAt, k.src, k.seq, func() { fired, firedOK = k2, true })
			model = append(model, live{k, h})
		case r < 7: // cancel a random live event
			i := rng.Intn(len(model))
			if !e.Cancel(model[i].h) {
				t.Fatalf("op %d: cancel of live event %+v refused", op, model[i].key)
			}
			if e.Cancel(model[i].h) || model[i].h.Valid() {
				t.Fatalf("op %d: handle still live after cancel", op)
			}
			model = append(model[:i], model[i+1:]...)
		default: // pop
			sort.Slice(model, func(i, j int) bool { return model[i].key.less(model[j].key) })
			want := model[0].key
			if k, ok := e.nextKey(); !ok || k != want {
				t.Fatalf("op %d: nextKey = %+v, %v; want %+v", op, k, ok, want)
			}
			firedOK = false
			if !e.Step() || !firedOK || fired != want {
				t.Fatalf("op %d: fired %+v (ran %v), want %+v", op, fired, firedOK, want)
			}
			if e.now != want.at {
				t.Fatalf("op %d: clock %v after event at %v", op, e.now, want.at)
			}
			model = model[1:]
		}
		if op%512 == 0 {
			got := e.PendingTimes(e.Pending())
			want := make([]Time, len(model))
			for i, l := range model {
				want[i] = l.key.at
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("op %d: PendingTimes reports %d live events, model has %d", op, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: PendingTimes[%d] = %v, want %v", op, i, got[i], want[i])
				}
			}
		}
	}
	// Drain: what is left fires in model order and nothing else does.
	sort.Slice(model, func(i, j int) bool { return model[i].key.less(model[j].key) })
	for _, l := range model {
		if !e.Step() || fired != l.key {
			t.Fatalf("drain: fired %+v, want %+v", fired, l.key)
		}
	}
	if e.Step() {
		t.Fatalf("a cancelled event fired: %+v", fired)
	}
}

// The key moved from the arena slot into the heap entry, it was not copied:
// a pending event was 56 B of slot + 4 B of heap index and must not grow.
func TestEventBytes(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got != 24 {
		t.Errorf("eventSlot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(heapEntry{}); got != 32 {
		t.Errorf("heapEntry is %d bytes, want 32", got)
	}
}
