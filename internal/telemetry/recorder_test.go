package telemetry

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// fillRecorder records n events with T = 0..n-1 so position in the stream
// is recoverable from the timestamp.
func fillRecorder(rec *Recorder, n int) {
	for i := 0; i < n; i++ {
		rec.Record(Event{T: int64(i), Kind: EvWindow, Entity: "ufabe.h0", A: int64(i % 7)})
	}
}

func TestRecorderExactlyAtDefaultCap(t *testing.T) {
	r := New()
	rec := r.EnableRecorder(0) // DefaultRecorderCap
	fillRecorder(rec, DefaultRecorderCap)
	if got := rec.Len(); got != DefaultRecorderCap {
		t.Fatalf("Len = %d, want %d", got, DefaultRecorderCap)
	}
	if got := rec.Total(); got != DefaultRecorderCap {
		t.Fatalf("Total = %d, want %d", got, DefaultRecorderCap)
	}
	if got := rec.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0: the ring is exactly full, nothing evicted", got)
	}
	evs := rec.Events()
	if len(evs) != DefaultRecorderCap {
		t.Fatalf("Events len = %d, want %d", len(evs), DefaultRecorderCap)
	}
	if evs[0].T != 0 || evs[len(evs)-1].T != DefaultRecorderCap-1 {
		t.Fatalf("Events range [%d, %d], want [0, %d]", evs[0].T, evs[len(evs)-1].T, DefaultRecorderCap-1)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != DefaultRecorderCap {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), DefaultRecorderCap)
	}
	if !strings.HasPrefix(lines[0], `{"t_ps":0,`) {
		t.Fatalf("first line = %q, want t_ps 0", lines[0])
	}
}

func TestRecorderPastDefaultCap(t *testing.T) {
	const extra = 1000
	r := New()
	rec := r.EnableRecorder(0)
	fillRecorder(rec, DefaultRecorderCap+extra)
	if got := rec.Len(); got != DefaultRecorderCap {
		t.Fatalf("Len = %d, want cap %d", got, DefaultRecorderCap)
	}
	if got := rec.Total(); got != DefaultRecorderCap+extra {
		t.Fatalf("Total = %d, want %d", got, DefaultRecorderCap+extra)
	}
	if got := rec.Dropped(); got != extra {
		t.Fatalf("Dropped = %d, want %d", got, extra)
	}
	evs := rec.Events()
	if len(evs) != DefaultRecorderCap {
		t.Fatalf("Events len = %d, want %d", len(evs), DefaultRecorderCap)
	}
	// Oldest retained is the first not evicted; ordering must be strict.
	if evs[0].T != extra {
		t.Fatalf("oldest retained T = %d, want %d", evs[0].T, extra)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T != evs[i-1].T+1 {
			t.Fatalf("Events out of order at %d: T %d after %d", i, evs[i].T, evs[i-1].T)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != DefaultRecorderCap {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), DefaultRecorderCap)
	}
	wantFirst := `{"t_ps":` + strconv.Itoa(extra) + `,`
	if !strings.HasPrefix(lines[0], wantFirst) {
		t.Fatalf("first JSONL line = %q, want prefix %q", lines[0], wantFirst)
	}
	wantLast := `{"t_ps":` + strconv.Itoa(DefaultRecorderCap+extra-1) + `,`
	if !strings.HasPrefix(lines[len(lines)-1], wantLast) {
		t.Fatalf("last JSONL line = %q, want prefix %q", lines[len(lines)-1], wantLast)
	}
}

func TestRecorderSubscribe(t *testing.T) {
	r := New()
	rec := r.EnableRecorder(4)
	var seen []int64
	rec.Subscribe(func(ev Event) { seen = append(seen, ev.T) })
	var seen2 int
	rec.Subscribe(func(Event) { seen2++ })
	fillRecorder(rec, 10)
	// Subscribers observe the full stream, including evicted events.
	if len(seen) != 10 || seen2 != 10 {
		t.Fatalf("subscribers saw %d/%d events, want 10/10", len(seen), seen2)
	}
	for i, tp := range seen {
		if tp != int64(i) {
			t.Fatalf("subscriber order broken at %d: T = %d", i, tp)
		}
	}
	if rec.Len() != 4 {
		t.Fatalf("ring retained %d, want 4", rec.Len())
	}
	// Nil receiver and nil callback are no-ops.
	var nilRec *Recorder
	nilRec.Subscribe(func(Event) { t.Fatal("subscriber on nil recorder must never fire") })
	nilRec.Record(Event{})
	rec.Subscribe(nil)
	rec.Record(Event{T: 99})
}

func TestSnapshotDiff(t *testing.T) {
	r := New()
	a := r.Counter("agent.h0.probes")
	b := r.Counter("agent.h1.probes")
	g := r.Gauge("link.a-b.qlen_bytes")
	a.Add(5)
	g.Set(10)
	prev := r.Snapshot()
	a.Add(3)
	b.Inc()
	g.Set(4)
	r.Counter("agent.h2.probes").Add(7) // born after prev: diffs against 0
	r.Gauge("link.c-d.qlen_bytes")      // zero-valued: no delta
	d := r.Snapshot().Diff(prev)
	if len(d.Counters) != 3 {
		t.Fatalf("counter deltas = %+v, want 3 entries", d.Counters)
	}
	want := map[string]int64{"agent.h0.probes": 3, "agent.h1.probes": 1, "agent.h2.probes": 7}
	for _, c := range d.Counters {
		if want[c.Name] != c.Value {
			t.Fatalf("delta %s = %d, want %d", c.Name, c.Value, want[c.Name])
		}
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Name != "link.a-b.qlen_bytes" || d.Gauges[0].Value != -6 {
		t.Fatalf("gauge deltas = %+v, want link.a-b.qlen_bytes = -6", d.Gauges)
	}
	// No changes → empty diff.
	snap := r.Snapshot()
	if d := snap.Diff(snap); len(d.Counters) != 0 || len(d.Gauges) != 0 {
		t.Fatalf("self-diff not empty: %+v", d)
	}
}

// TestEventsSince: for an unwrapped, an exactly full and a wrapped ring, and
// a cursor before, at the edges of, inside and past the retained window, the
// result is Events() minus what the cursor has already seen — and only that
// many events are allocated, not the ring.
func TestEventsSince(t *testing.T) {
	const ringCap = 8
	for _, recorded := range []int{0, 5, ringCap, ringCap + 3, 3*ringCap + 1} {
		rec := newRecorder(ringCap)
		fillRecorder(rec, recorded)
		all := rec.Events()
		evicted := uint64(recorded - len(all))
		for n := uint64(0); n <= uint64(recorded)+2; n++ {
			want := all
			if n >= evicted {
				if n-evicted >= uint64(len(all)) {
					want = nil
				} else {
					want = all[n-evicted:]
				}
			}
			got := rec.EventsSince(n)
			if len(got) != len(want) {
				t.Fatalf("recorded %d, EventsSince(%d): %d events, want %d", recorded, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("recorded %d, EventsSince(%d)[%d] = %+v, want %+v", recorded, n, i, got[i], want[i])
				}
			}
			if cap(got) != len(got) {
				t.Errorf("recorded %d, EventsSince(%d): cap %d for %d events", recorded, n, cap(got), len(got))
			}
		}
	}
	if got := (*Recorder)(nil).EventsSince(0); got != nil {
		t.Errorf("nil recorder: %v", got)
	}
}

// TestEventsSinceAllocatesTheTailOnly: draining a few new events from a full
// default-size ring — what the auditor does every sampling tick — must not
// copy the ring.
func TestEventsSinceAllocatesTheTailOnly(t *testing.T) {
	rec := newRecorder(DefaultRecorderCap)
	fillRecorder(rec, DefaultRecorderCap+100)
	cursor := rec.Total()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds, fresh = 50, 16
	for i := 0; i < rounds; i++ {
		fillRecorder(rec, fresh)
		if got := rec.EventsSince(cursor); len(got) != fresh {
			t.Fatalf("round %d: %d events, want %d", i, len(got), fresh)
		}
		cursor = rec.Total()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := uint64(4 * fresh * unsafe.Sizeof(Event{})); perCall > limit {
		t.Errorf("EventsSince allocated %d bytes per call for %d events, want <= %d", perCall, fresh, limit)
	}
}

// TestRingAllocatesChunksOnDemand: a recorder holds nothing until it records,
// then one chunk per recorderChunk events it retains — each allocated once and
// never copied — and a full ring records without allocating at all.
func TestRingAllocatesChunksOnDemand(t *testing.T) {
	allocated := func(f func()) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	const chunkBytes = recorderChunk * uint64(unsafe.Sizeof(Event{}))
	rec := newRecorder(DefaultRecorderCap)
	for _, k := range []int{1, recorderChunk - 1, 1, 3*recorderChunk + 5} { // cumulative: 1, chunk, chunk+1, 4 chunks + 6
		before := len(rec.chunks)
		bytes, _ := allocated(func() { fillRecorder(rec, k) })
		chunks := (int(rec.Total()) + recorderChunk - 1) / recorderChunk
		if len(rec.chunks) != chunks {
			t.Fatalf("%d events recorded: %d chunks, want %d", rec.Total(), len(rec.chunks), chunks)
		}
		// The chunks themselves, plus the directory's occasional regrowth.
		if want := uint64(chunks-before) * chunkBytes; bytes < want || bytes > want+1024 {
			t.Errorf("%d more events (%d in all) allocated %d bytes, want %d new chunk(s) = %d", k, rec.Total(), bytes, chunks-before, want)
		}
	}
	fillRecorder(rec, DefaultRecorderCap)
	// AllocsPerRun, not one MemStats window: it counts with GOMAXPROCS 1 and
	// averages over runs, so a runtime allocation that lands in the window
	// does not read as the ring's.
	if objects := testing.AllocsPerRun(10, func() { fillRecorder(rec, DefaultRecorderCap/2) }); objects != 0 {
		t.Errorf("recording into a full ring allocated %v objects per half-ring", objects)
	}
	// A ring smaller than a chunk, and one that is not a whole number of them.
	for _, ringCap := range []int{16, recorderChunk + 100} {
		rec := newRecorder(ringCap)
		fillRecorder(rec, 3*ringCap+7)
		slots := 0
		for _, c := range rec.chunks {
			slots += len(c)
		}
		evs := rec.Events()
		if slots != ringCap || len(evs) != ringCap || evs[0].T != int64(2*ringCap+7) || evs[ringCap-1].T != int64(3*ringCap+6) {
			t.Errorf("cap %d: %d slots, %d events retained, T %d..%d", ringCap, slots, len(evs), evs[0].T, evs[len(evs)-1].T)
		}
	}
}

// TestAppendEventsSinceReusesItsSlice: the auditor's per-tick drain appends
// into the slice it drained into last tick; once that has grown to the
// largest batch a drain allocates nothing, wrapped ring or not, and yields
// what EventsSince yields.
func TestAppendEventsSinceReusesItsSlice(t *testing.T) {
	rec := newRecorder(4 * recorderChunk)
	fillRecorder(rec, 3*recorderChunk) // the first drain is the largest
	var batch []Event
	cursor := uint64(0)
	drain := func() {
		batch = rec.AppendEventsSince(batch[:0], cursor)
		cursor = rec.Total()
	}
	drain()
	if len(batch) != 3*recorderChunk || cap(batch) > 3*recorderChunk+recorderChunk/8 {
		t.Fatalf("first drain: %d events in a slice of %d, want %d sized to fit", len(batch), cap(batch), 3*recorderChunk)
	}
	for round := 0; round < 8; round++ { // wraps the ring twice
		fillRecorder(rec, recorderChunk+17)
		want := rec.EventsSince(cursor)
		if a := testing.AllocsPerRun(1, func() { batch = rec.AppendEventsSince(batch[:0], cursor) }); a != 0 {
			t.Errorf("round %d: draining %d events into a warm slice allocated %v times", round, len(want), a)
		}
		drain()
		if len(batch) != len(want) {
			t.Fatalf("round %d: %d events, EventsSince gives %d", round, len(batch), len(want))
		}
		for i := range want {
			if batch[i] != want[i] {
				t.Fatalf("round %d: event %d = %+v, EventsSince gives %+v", round, i, batch[i], want[i])
			}
		}
	}
	if got := (*Recorder)(nil).AppendEventsSince(batch[:1], 0); len(got) != 1 {
		t.Errorf("nil recorder appended %d events", len(got)-1)
	}
}

// TestMergeEventsMatchesStableSort is the property the k-way merge stands on:
// for random multi-recorder streams — duplicate events within and across
// streams, long runs of equal T, empty streams, and now and then a stream out
// of time order — it emits exactly what the stable sort of the streams'
// concatenation, which it replaced, produces.
func TestMergeEventsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entities := []string{"ufabe.h0", "ufabe.h1", "link.a-b"}
	notes := []string{"", "probe", "finish"}
	for trial := 0; trial < 300; trial++ {
		streams := make([][]Event, 1+rng.Intn(9))
		var concat []Event
		for s := range streams {
			n := rng.Intn(40)
			if rng.Intn(5) == 0 {
				n = 0
			}
			now := int64(rng.Intn(3))
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					now += int64(rng.Intn(3))
				}
				ev := Event{T: now, Kind: EventKind(rng.Intn(3)), Entity: entities[rng.Intn(len(entities))],
					A: int64(rng.Intn(2)), B: int64(rng.Intn(2)), V: float64(rng.Intn(2)), Note: notes[rng.Intn(len(notes))],
					Trace: uint64(rng.Intn(2)), Span: uint64(rng.Intn(2))}
				if i > 0 && rng.Intn(4) == 0 {
					ev = streams[s][rng.Intn(i)] // a duplicate, possibly from an earlier time
					if trial%10 != 0 {
						ev.T = now // keep the stream in time order on most trials
					}
				}
				streams[s] = append(streams[s], ev)
			}
			concat = append(concat, streams[s]...)
		}
		want := append([]Event(nil), concat...)
		sort.SliceStable(want, func(i, j int) bool { return EventBefore(want[i], want[j]) })
		var got []Event
		MergeEvents(streams, func(ev Event) { got = append(got, ev) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d events of %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, stable sort gives %+v", trial, i, got[i], want[i])
			}
		}
	}
	MergeEvents(nil, func(Event) { t.Error("merge of no streams emitted an event") })
}
