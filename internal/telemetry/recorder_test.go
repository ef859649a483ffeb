package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
	rec := r.EnableRecorder(0) // defaultRecorderCap
	fillRecorder(rec, defaultRecorderCap)
	if got := rec.Len(); got != defaultRecorderCap {
		t.Fatalf("Len = %d, want %d", got, defaultRecorderCap)
	}
	if got := rec.Total(); got != defaultRecorderCap {
		t.Fatalf("Total = %d, want %d", got, defaultRecorderCap)
	}
	if got := rec.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0: the ring is exactly full, nothing evicted", got)
	}
	evs := rec.Events()
	if len(evs) != defaultRecorderCap {
		t.Fatalf("Events len = %d, want %d", len(evs), defaultRecorderCap)
	}
	if evs[0].T != 0 || evs[len(evs)-1].T != defaultRecorderCap-1 {
		t.Fatalf("Events range [%d, %d], want [0, %d]", evs[0].T, evs[len(evs)-1].T, defaultRecorderCap-1)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != defaultRecorderCap {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), defaultRecorderCap)
	}
	if !strings.HasPrefix(lines[0], `{"t_ps":0,`) {
		t.Fatalf("first line = %q, want t_ps 0", lines[0])
	}
}

func TestRecorderPastDefaultCap(t *testing.T) {
	const extra = 1000
	r := New()
	rec := r.EnableRecorder(0)
	fillRecorder(rec, defaultRecorderCap+extra)
	if got := rec.Len(); got != defaultRecorderCap {
		t.Fatalf("Len = %d, want cap %d", got, defaultRecorderCap)
	}
	if got := rec.Total(); got != defaultRecorderCap+extra {
		t.Fatalf("Total = %d, want %d", got, defaultRecorderCap+extra)
	}
	if got := rec.Dropped(); got != extra {
		t.Fatalf("Dropped = %d, want %d", got, extra)
	}
	evs := rec.Events()
	if len(evs) != defaultRecorderCap {
		t.Fatalf("Events len = %d, want %d", len(evs), defaultRecorderCap)
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
	if len(lines) != defaultRecorderCap {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), defaultRecorderCap)
	}
	wantFirst := `{"t_ps":` + strconv.Itoa(extra) + `,`
	if !strings.HasPrefix(lines[0], wantFirst) {
		t.Fatalf("first JSONL line = %q, want prefix %q", lines[0], wantFirst)
	}
	wantLast := `{"t_ps":` + strconv.Itoa(defaultRecorderCap+extra-1) + `,`
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
	rec := newRecorder(defaultRecorderCap)
	fillRecorder(rec, defaultRecorderCap+100)
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
// then one chunk per recorderChunk events it retains: the staging buffer the
// newest fills, made once with room for stageBytes per event, and the full
// ones sealed out of it, each allocated once at its size and a sixteenth
// more; and a full ring
// records into the chunks it has without allocating, holding at most one
// chunk of evicted records beside its window.
func TestRingAllocatesChunksOnDemand(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	rec := newRecorder(defaultRecorderCap)
	if len(rec.chunks) != 0 {
		t.Fatalf("a new recorder holds %d chunks", len(rec.chunks))
	}
	for _, k := range []int{1, recorderChunk - 1, 1, 3*recorderChunk + 5} { // cumulative: 1, chunk, chunk+1, 4 chunks + 6
		before := len(rec.chunks)
		bytes := allocated(func() { fillRecorder(rec, k) })
		chunks := (int(rec.Total()) + recorderChunk - 1) / recorderChunk
		if len(rec.chunks) != chunks {
			t.Fatalf("%d events recorded: %d chunks, want %d", rec.Total(), len(rec.chunks), chunks)
		}
		if got := cap(rec.chunks[chunks-1]); got != recorderChunk*stageBytes {
			t.Errorf("the staging buffer has room for %d bytes, want %d", got, recorderChunk*stageBytes)
		}
		var room uint64
		if before == 0 {
			room = recorderChunk * stageBytes
		}
		for c := max(before-1, 0); c < chunks-1; c++ {
			n := len(rec.chunks[c])
			if cap(rec.chunks[c]) != n+n/16 {
				t.Errorf("sealed chunk %d has room for %d bytes, holds %d", c, cap(rec.chunks[c]), n)
			}
			room += uint64(n + n/16)
		}
		// The new buffers, rounded up to the allocator's size classes (at most
		// an eighth), plus the directory's occasional regrowth.
		if bytes < room || bytes > room+room/8+1024 {
			t.Errorf("%d more events (%d in all) allocated %d bytes, want the %d of %d new chunk(s)", k, rec.Total(), bytes, room, chunks-before)
		}
	}
	fillRecorder(rec, defaultRecorderCap)
	// AllocsPerRun, not one MemStats window: it counts with GOMAXPROCS 1 and
	// averages over runs, so a runtime allocation that lands in the window
	// does not read as the ring's.
	if objects := testing.AllocsPerRun(10, func() { fillRecorder(rec, defaultRecorderCap/2) }); objects != 0 {
		t.Errorf("recording into a full ring allocated %v objects per half-ring", objects)
	}
	// A ring of one event, one smaller than a chunk, one of exactly a chunk
	// and one that is not a whole number of them.
	for _, ringCap := range []int{1, 16, recorderChunk, recorderChunk + 100, 3*recorderChunk - 1} {
		rec := newRecorder(ringCap)
		fillRecorder(rec, 3*ringCap+7)
		held := 0
		for _, c := range rec.chunks {
			for off := 0; off < len(c); off += int(c[off+1]) {
				held++
			}
		}
		evs := rec.Events()
		// At most a chunk of evicted records, and under one more per chunk
		// where the chunks do not divide the cap.
		if most := ringCap + rec.per + rec.span - 2; held < ringCap || held > most || len(rec.chunks) > rec.span {
			t.Errorf("cap %d: %d records held in %d chunks, want %d to %d in at most %d", ringCap, held, len(rec.chunks), ringCap, most, rec.span)
		}
		if len(evs) != ringCap || evs[0].T != int64(2*ringCap+7) || evs[ringCap-1].T != int64(3*ringCap+6) {
			t.Errorf("cap %d: %d events retained, T %d..%d", ringCap, len(evs), evs[0].T, evs[len(evs)-1].T)
		}
	}
}

// TestMergeReusesItsScratch: the auditor's per-tick feed reads the rings in
// place; once its scratch has grown to the largest timestamp group, a read
// allocates nothing, wrapped rings or not, and hands on every new event.
// (What is counted is the recording too: a ring makes its last chunk on its
// second lap, so the rings have recorded five chunks before the count.)
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
	fill(2 * recorderChunk)
	if read(); n != 10*recorderChunk {
		t.Fatalf("second read: %d events in all, want %d", n, 10*recorderChunk)
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
			sort.SliceStable(want, func(i, j int) bool { return eventBefore(want[i], want[j]) })
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

// sameEvent is ==, except that V compares by its bits: a ring keeps -0.0 and
// NaN payloads as recorded.
func sameEvent(a, b Event) bool {
	va, vb := math.Float64bits(a.V), math.Float64bits(b.V)
	a.V, b.V = 0, 0
	return a == b && va == vb
}

// TestRecordRoundTrip: whatever a ring stores in its records and string
// table decodes to exactly the events recorded, over more than two laps of a
// ring smaller than a chunk, of one chunk and of one that is not a whole
// number of them — every kind byte; empty, repeated and spilled strings;
// random scalars and adversarial ones: math.MinInt64 and math.MaxInt64 in A,
// B and T, T running backwards inside a chunk, V as -0.0, as NaN with a
// payload and as ±Inf, Trace zero and not.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strs := []string{"", "ufabe.h0", "ufabe.h17", "link.core1-agg2", "probe", "overflow", "placement.ctl", "chaos.injector", "link.s3-s4", "ufabe.h99"}
	ints := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0, 1}
	floats := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001), math.Inf(1), math.Inf(-1), 0}
	pick := func(random int64) int64 {
		if rng.Intn(4) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return random
	}
	for _, ringCap := range []int{16, recorderChunk, recorderChunk + 100} {
		rec := newRecorder(ringCap)
		rec.maxStrs = 7 // the last strings spill, and go on spilling lap after lap
		var all []Event
		now := int64(0)
		for i := 0; i < 2*ringCap+1+rng.Intn(ringCap); i++ {
			now += int64(rng.Intn(1000)) - 100 // backwards now and then
			ev := Event{T: pick(now), Kind: EventKind(rng.Intn(256)), Entity: strs[rng.Intn(len(strs))],
				A: pick(rng.Int63() - rng.Int63()), B: pick(rng.Int63() - rng.Int63()), V: rng.NormFloat64() * 1e9,
				Note: strs[rng.Intn(len(strs))], Span: rng.Uint64()}
			if rng.Intn(3) == 0 {
				ev.V = floats[rng.Intn(len(floats))]
			}
			if rng.Intn(3) != 0 {
				ev.Trace = rng.Uint64()
			}
			if rng.Intn(8) == 0 {
				ev.Span = uint64(pick(0))
			}
			rec.Record(ev)
			all = append(all, ev)
		}
		got, want := rec.Events(), all[len(all)-ringCap:]
		if len(got) != len(want) {
			t.Fatalf("cap %d: %d events retained, want %d", ringCap, len(got), len(want))
		}
		for i := range want {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("cap %d: event %d = %+v, recorded %+v", ringCap, i, got[i], want[i])
			}
		}
		if len(rec.spill) == 0 || len(rec.spill) > ringCap+rec.per {
			t.Errorf("cap %d: %d events spilled, want some and no more than the %d a ring holds", ringCap, len(rec.spill), ringCap+rec.per)
		}
	}
}

// TestStringTableOverflowSpills: a recorder whose string table is full keeps
// the strings of an event that brings a new one beside the ring, under its
// event number, instead of panicking or decoding them as another string.
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
		t.Errorf("%d strings interned (limit %d), %d events spilled", len(rec.strs), rec.maxStrs, len(rec.spill))
	}
}

// fabricMix returns n events shaped like the stream one shard ring of an
// instrumented clos128_rpc fabric records: μFAB-C register updates from the
// shard's switches (59 %), and at its edges probes sent and answered and the
// windows computed from them (12 % each) and stage changes (5 %), ~0.3 µs
// apart, each with the trace ids and span its call site gives it.
func fabricMix(n int) []Event {
	rng := rand.New(rand.NewSource(38))
	hosts, switches := make([]string, 16), make([]string, 10)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("ufabe.h%d", 16+i)
	}
	for i := range switches {
		switches[i] = fmt.Sprintf("ufabc.s%d", 140+i)
	}
	evs := make([]Event, n)
	now := int64(0)
	for i := range evs {
		now += int64(rng.Intn(600_000))
		pair, path, seq := int64(rng.Intn(1024)), int64(rng.Intn(16)), int64(rng.Intn(1<<16))
		trace := SpanID(TraceProbe, pair, path, seq)
		ev := Event{T: now, Entity: hosts[rng.Intn(len(hosts))], A: pair, B: path, Trace: trace}
		switch x := rng.Intn(100); {
		case x < 59:
			ev = Event{T: now, Kind: EvRegister, Entity: switches[rng.Intn(len(switches))],
				A: int64(rng.Intn(4000) - 2000), B: int64(rng.Intn(16000) - 8000), Note: "update", Trace: trace, Span: 2}
		case x < 71:
			ev.Kind, ev.Note, ev.Span = EvProbeTX, "probe", 1
		case x < 83:
			ev.Kind, ev.V, ev.Span = EvProbeRX, 8+rng.Float64()*40, 3
		case x < 95:
			ev.Kind, ev.B, ev.V, ev.Span = EvWindow, int64(rng.Intn(200_000)), rng.Float64()*1e9, 4
		default:
			ev = Event{T: now, Kind: EvStage, Entity: ev.Entity, A: pair, Note: []string{"ramp", "steady"}[rng.Intn(2)]}
		}
		evs[i] = ev
	}
	return evs
}

// TestRecorderBytesPerEvent: a full default ring holds an instrumented
// fabric's event mix in at most 24 bytes per retained event, counting all the
// room its chunks hold; the chunks are byte slices the garbage collector
// never scans; and a second full lap reuses them without allocating. (The
// fixed-width layout before took a 56-byte slot per event.)
func TestRecorderBytesPerEvent(t *testing.T) {
	if typ := reflect.TypeOf(Recorder{}.chunks).Elem().Elem(); typ.Kind() != reflect.Uint8 {
		t.Errorf("a chunk is a []%v, want bytes: a chunk must hold no pointer", typ)
	}
	evs := fabricMix(defaultRecorderCap)
	rec := newRecorder(defaultRecorderCap)
	for _, ev := range evs {
		rec.Record(ev)
	}
	room := 0
	for _, c := range rec.chunks {
		room += cap(c)
	}
	perEvent := float64(room) / float64(rec.Len())
	t.Logf("%d events in %d chunks: %d bytes of room, %.1f per event", rec.Len(), len(rec.chunks), room, perEvent)
	if perEvent > 24 {
		t.Errorf("%.1f bytes of room per retained event, want <= 24", perEvent)
	}
	if a := testing.AllocsPerRun(1, func() {
		for _, ev := range evs {
			rec.Record(ev)
		}
	}); a != 0 {
		t.Errorf("a second full lap allocated %v times", a)
	}
	if got := rec.Events(); len(got) != len(evs) || got[0] != evs[0] || got[len(got)-1] != evs[len(evs)-1] {
		t.Errorf("after three laps the ring holds %d events, not the last lap's %d", len(got), len(evs))
	}
}

// appendFuzzEvent is the encoding FuzzRecorderRoundTrip reads events from:
// the kind, a selector byte (entity, note, which of two recorders), then T,
// A, B, V's bits, Trace and Span as uvarints.
func appendFuzzEvent(b []byte, ev Event, sel byte) []byte {
	b = append(b, byte(ev.Kind), sel)
	for _, u := range []uint64{uint64(ev.T), uint64(ev.A), uint64(ev.B), math.Float64bits(ev.V), ev.Trace, ev.Span} {
		b = binary.AppendUvarint(b, u)
	}
	return b
}

// FuzzRecorderRoundTrip: for any event sequence, split between two rings of
// a small cap (and a string table small enough to spill), each ring retains
// exactly its last cap events, every one decoding to what was recorded, and
// Merge of the two yields exactly the stable sort of their retained events.
// The seeds run in `go test`; to fuzz beyond them:
//
//	go test ./internal/telemetry -run '^$' -fuzz FuzzRecorderRoundTrip -fuzztime 30s
func FuzzRecorderRoundTrip(f *testing.F) {
	var seed []byte
	for i, ev := range []Event{
		{T: 5, Kind: EvRegister, A: -3, B: 7, Trace: 11, Span: 2},
		{T: 4, Kind: EvProbeRX, V: math.Copysign(0, -1), Span: 3},
		{T: math.MinInt64, Kind: 255, A: math.MaxInt64, B: math.MinInt64, V: math.NaN(), Trace: math.MaxUint64, Span: math.MaxUint64},
		{T: math.MaxInt64, V: math.Inf(-1)},
	} {
		seed = appendFuzzEvent(seed, ev, byte(i*37))
	}
	f.Add([]byte(nil), uint8(0), uint8(0))
	f.Add(seed, uint8(2), uint8(3))
	f.Add(bytes.Repeat(seed, 9), uint8(5), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 300), uint8(63), uint8(7))
	strs := []string{"", "ufabe.h0", "ufabe.h1", "link.a-b", "probe", "update", "chaos.injector", "placement.ctl"}
	f.Fuzz(func(t *testing.T, data []byte, ringCap, maxStrs uint8) {
		recs := []*Recorder{newRecorder(1 + int(ringCap)%64), newRecorder(1 + int(ringCap)%64)}
		for _, rec := range recs {
			rec.maxStrs = 1 + int(maxStrs)%8
		}
		field := func() uint64 {
			u, n := binary.Uvarint(data)
			if n <= 0 {
				data = nil
				return 0
			}
			data = data[n:]
			return u
		}
		recorded := make([][]Event, len(recs))
		for len(data) >= 2 {
			kind, sel := data[0], data[1]
			data = data[2:]
			ev := Event{Kind: EventKind(kind), Entity: strs[sel&7], Note: strs[sel>>3&7]}
			ev.T, ev.A, ev.B = int64(field()), int64(field()), int64(field())
			ev.V, ev.Trace, ev.Span = math.Float64frombits(field()), field(), field()
			s := int(sel >> 7)
			recs[s].Record(ev)
			recorded[s] = append(recorded[s], ev)
		}
		var want []Event
		for s, rec := range recs {
			got := rec.Events()
			kept := recorded[s][len(recorded[s])-rec.Len():]
			if len(got) != len(kept) || rec.Total() != uint64(len(recorded[s])) {
				t.Fatalf("ring %d (cap %d): %d events retained of %d, want %d", s, rec.cap, len(got), len(recorded[s]), len(kept))
			}
			for i := range kept {
				if !sameEvent(got[i], kept[i]) {
					t.Fatalf("ring %d (cap %d): event %d = %+v, recorded %+v", s, rec.cap, i, got[i], kept[i])
				}
			}
			want = append(want, got...)
		}
		sort.SliceStable(want, func(i, j int) bool { return eventBefore(want[i], want[j]) })
		var merged []Event
		Merge(recs, nil, func(ev Event) { merged = append(merged, ev) })()
		if len(merged) != len(want) {
			t.Fatalf("Merge yields %d events, the stable sort %d", len(merged), len(want))
		}
		for i := range want {
			if !sameEvent(merged[i], want[i]) {
				t.Fatalf("Merge event %d = %+v, the stable sort gives %+v", i, merged[i], want[i])
			}
		}
	})
}
