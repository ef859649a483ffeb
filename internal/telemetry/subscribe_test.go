package telemetry

import (
	"testing"
)

// TestSubscribeSeesEvictedEvents: a subscriber observes the complete event
// stream even when the ring wraps long before the reader catches up — the
// "slow subscriber" case: the subscriber only copies sequence numbers, so
// by the time it inspects them the ring has already evicted the events.
func TestSubscribeSeesEvictedEvents(t *testing.T) {
	r := New()
	rec := r.EnableRecorder(4)
	var seen []int64
	rec.Subscribe(func(ev Event) { seen = append(seen, ev.A) })
	const n = 100
	for i := 0; i < n; i++ {
		rec.Record(Event{T: int64(i), Kind: EvWindow, A: int64(i)})
	}
	if len(seen) != n {
		t.Fatalf("subscriber saw %d events, want %d", len(seen), n)
	}
	for i, a := range seen {
		if a != int64(i) {
			t.Fatalf("subscriber event %d has A=%d — out of recording order", i, a)
		}
	}
	if rec.Len() != 4 || rec.Total() != n || rec.Dropped() != n-4 {
		t.Fatalf("ring accounting len=%d total=%d dropped=%d, want 4/%d/%d",
			rec.Len(), rec.Total(), rec.Dropped(), n, n-4)
	}
	// The ring retains only the tail; the subscriber kept everything.
	if evs := rec.Events(); evs[0].A != n-4 {
		t.Fatalf("ring oldest A=%d, want %d", evs[0].A, n-4)
	}
}

// TestSubscribePerShardRings: subscribers attach per ring under the
// sharded layout; each sees exactly its own shard's stream, and the
// canonical merge of the rings is unaffected by live subscribers.
func TestSubscribePerShardRings(t *testing.T) {
	r := New()
	r.EnableRecorder(64)
	recs := r.EnableShardRecorders(3, 4)
	perShard := make([][]Event, 3)
	for i, sr := range recs {
		i := i
		sr.Subscribe(func(ev Event) { perShard[i] = append(perShard[i], ev) })
	}
	// Interleave recording across shards with deliberately unsorted times.
	var total int
	for round := 0; round < 10; round++ {
		for s := 0; s < 3; s++ {
			recs[s].Record(Event{T: int64(100 - round), Kind: EvStage, Entity: "ufabe.h1", A: int64(s), B: int64(round)})
			total++
		}
	}
	for s, evs := range perShard {
		if len(evs) != 10 {
			t.Fatalf("shard %d subscriber saw %d events, want 10", s, len(evs))
		}
		for i, ev := range evs {
			if ev.A != int64(s) || ev.B != int64(i) {
				t.Fatalf("shard %d subscriber out of order at %d: %+v", s, i, ev)
			}
		}
	}
	var merged []Event
	r.eachTraceEvent(func(ev Event) { merged = append(merged, ev) })
	if len(merged) != 3*4 {
		t.Fatalf("merged trace holds %d events, want the 3 × 4 the shard rings retain", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if eventBefore(merged[i], merged[i-1]) {
			t.Fatalf("merged trace not canonically sorted at %d", i)
		}
	}
	gotTotal, gotDropped := r.TraceTotals()
	if gotTotal != uint64(total) {
		t.Fatalf("TraceTotals total=%d, want %d", gotTotal, total)
	}
	// Each 4-deep shard ring retained 4 of its 10 events.
	if wantDrop := uint64(3 * (10 - 4)); gotDropped != wantDrop {
		t.Fatalf("TraceTotals dropped=%d, want %d", gotDropped, wantDrop)
	}
}

// TestSubscribeMultiple: several subscribers on one recorder all see the
// stream; subscribing after some events only sees the suffix.
func TestSubscribeMultiple(t *testing.T) {
	rec := newRecorder(8)
	var a, b int
	rec.Subscribe(func(Event) { a++ })
	rec.Record(Event{T: 1})
	rec.Subscribe(func(Event) { b++ })
	rec.Record(Event{T: 2})
	rec.Record(Event{T: 3})
	if a != 3 || b != 2 {
		t.Fatalf("subscriber counts a=%d b=%d, want 3/2", a, b)
	}
}
