package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	const chunkBytes = recorderChunk * uint64(unsafe.Sizeof(slot{}))
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

// TestMergeReusesItsScratch: the auditor's per-tick feed reads the rings in
// place; once its scratch has grown to the largest timestamp group, a read
// allocates nothing, wrapped rings or not, and hands on every new event.
func TestMergeReusesItsScratch(t *testing.T) {
	recs := []*Recorder{newRecorder(4 * recorderChunk), newRecorder(4 * recorderChunk)}
	n := 0
	read := Merge(recs, nil, func(Event) { n++ })
	fill := func(k int) {
		for _, rec := range recs {
			fillRecorder(rec, k)
		}
	}
	fill(3 * recorderChunk)
	read()
	if n != 6*recorderChunk {
		t.Fatalf("first read: %d events, want %d", n, 6*recorderChunk)
	}
	for round := 0; round < 8; round++ { // wraps the rings twice
		n = 0
		if a := testing.AllocsPerRun(1, func() { fill(recorderChunk + 17); read() }); a != 0 {
			t.Errorf("round %d: reading %d fresh events allocated %v times", round, n, a)
		}
		if want := 2 * 2 * (recorderChunk + 17); n != want { // AllocsPerRun runs twice
			t.Fatalf("round %d: %d events read, want %d", round, n, want)
		}
	}
	if missed := Merge([]*Recorder{nil}, nil, func(Event) { t.Error("a nil recorder emitted") })(); missed != 0 {
		t.Errorf("nil recorder: %d missed", missed)
	}
}

// TestMergeEventsMatchesStableSort is the property the ring merge stands on:
// for random recorders read again and again — duplicate events within and
// across recorders, long runs of equal T, empty batches, rings that evict
// between reads, now and then a recorder out of time order, and on a third
// of the trials a kind filter — each read hands on exactly what the stable
// sort of the recorders' new retained events, concatenated in recorder
// order and filtered afterwards, produces, and counts exactly the events the
// rings evicted unread.
func TestMergeEventsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entities := []string{"ufabe.h0", "ufabe.h1", "link.a-b"}
	notes := []string{"", "probe", "finish"}
	for trial := 0; trial < 300; trial++ {
		recs := make([]*Recorder, 1+rng.Intn(9))
		for s := range recs {
			recs[s] = newRecorder(8 + rng.Intn(40))
		}
		var keep func(EventKind) bool
		if trial%3 == 0 {
			keep = func(k EventKind) bool { return k != EvProbeRX }
		}
		var got []Event
		read := Merge(recs, keep, func(ev Event) { got = append(got, ev) })
		seen := make([]uint64, len(recs))
		now := make([]int64, len(recs))
		for call := 0; call < 4; call++ {
			for s, rec := range recs {
				n := rng.Intn(40)
				if rng.Intn(5) == 0 {
					n = 0
				}
				for i := 0; i < n; i++ {
					if rng.Intn(3) == 0 {
						now[s] += int64(rng.Intn(3))
					}
					ev := Event{T: now[s], Kind: EventKind(rng.Intn(3)), Entity: entities[rng.Intn(len(entities))],
						A: int64(rng.Intn(2)), B: int64(rng.Intn(2)), V: float64(rng.Intn(2)), Note: notes[rng.Intn(len(notes))],
						Trace: uint64(rng.Intn(2)), Span: uint64(rng.Intn(2))}
					if rec.Len() > 0 && rng.Intn(4) == 0 {
						ev = rec.Events()[rng.Intn(rec.Len())] // a duplicate, possibly from an earlier time
						if trial%10 != 0 {
							ev.T = now[s] // keep the recorder in time order on most trials
						}
					}
					rec.Record(ev)
				}
			}
			var want []Event
			var evicted uint64
			for s, rec := range recs {
				want = append(want, rec.EventsSince(seen[s])...)
				evicted += max(seen[s], rec.Dropped()) - seen[s]
				seen[s] = rec.Total()
			}
			sort.SliceStable(want, func(i, j int) bool { return EventBefore(want[i], want[j]) })
			want = slices.DeleteFunc(want, func(ev Event) bool { return keep != nil && !keep(ev.Kind) })
			got = got[:0]
			if missed := read(); missed != evicted {
				t.Fatalf("trial %d, read %d: %d missed, the rings evicted %d unread", trial, call, missed, evicted)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d, read %d: merged %d events of %d", trial, call, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d, read %d: event %d = %+v, stable sort gives %+v", trial, call, i, got[i], want[i])
				}
			}
		}
	}
	if missed := Merge(nil, nil, func(Event) { t.Error("merge of no recorders emitted an event") })(); missed != 0 {
		t.Errorf("merge of no recorders missed %d", missed)
	}
}

// TestRecordRoundTrip: whatever a ring stores in its slots and string table
// decodes to exactly the events recorded — every kind byte, empty and
// repeated strings, arbitrary scalars — for a ring smaller than a chunk and
// one that is not a whole number of them, over more than two laps.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strs := []string{"", "ufabe.h0", "ufabe.h17", "link.core1-agg2", "probe", "overflow", "placement.ctl", "chaos.injector"}
	for _, ringCap := range []int{16, recorderChunk + 100} {
		rec := newRecorder(ringCap)
		var all []Event
		for i := 0; i < 2*ringCap+1+rng.Intn(ringCap); i++ {
			ev := Event{T: rng.Int63() - rng.Int63(), Kind: EventKind(rng.Intn(256)), Entity: strs[rng.Intn(len(strs))],
				A: rng.Int63() - rng.Int63(), B: rng.Int63() - rng.Int63(), V: rng.NormFloat64() * 1e9,
				Note: strs[rng.Intn(len(strs))], Trace: rng.Uint64(), Span: rng.Uint64()}
			rec.Record(ev)
			all = append(all, ev)
		}
		got, want := rec.Events(), all[len(all)-ringCap:]
		if len(got) != len(want) {
			t.Fatalf("cap %d: %d events retained, want %d", ringCap, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cap %d: event %d = %+v, recorded %+v", ringCap, i, got[i], want[i])
			}
		}
	}
}

// TestStringTableOverflowSpills: a recorder whose string table is full keeps
// the strings of an event that brings a new one beside the ring, under its
// slot, instead of panicking or decoding them as another string.
func TestStringTableOverflowSpills(t *testing.T) {
	const ringCap = 16
	rec := newRecorder(ringCap)
	rec.maxStrs = 4 // "" and three more
	var all []Event
	for i := 0; i < 10*ringCap; i++ {
		ev := Event{T: int64(i), Kind: EvDrop, Entity: fmt.Sprintf("link.l%d", i%40), A: int64(i), Note: []string{"", "overflow", "fault"}[i%3]}
		rec.Record(ev)
		all = append(all, ev)
	}
	got, want := rec.Events(), all[len(all)-ringCap:]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, recorded %+v", i, got[i], want[i])
		}
	}
	if len(rec.strs) > rec.maxStrs || len(rec.spill) == 0 {
		t.Errorf("%d strings interned (limit %d), %d slots spilled", len(rec.strs), rec.maxStrs, len(rec.spill))
	}
}

// TestSlotIsPointerFree: a ring slot is 56 bytes and holds no pointer, so a
// 1024-slot chunk is seven pages the garbage collector never scans. A string,
// slice or pointer field added to the slot fails here, not in a profile.
func TestSlotIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 56 {
		t.Errorf("slot is %d bytes, want 56", size)
	}
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: a slot must hold no pointer", path, typ.Kind())
		}
	}
	check("slot", reflect.TypeOf(slot{}))
}
