package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// EventKind classifies flight-recorder events.
type EventKind uint8

// Event kinds. The set mirrors the signals the paper's workflow turns on:
// probe traffic, window/admission dynamics, migrations, and faults.
const (
	// EvProbeTX: an edge sent a probe or finish probe (A = pair id, B =
	// path index, Note = "probe"/"finish").
	EvProbeTX EventKind = iota
	// EvProbeRX: an edge received a probe response (A = pair id, B = path
	// index, V = RTT in microseconds).
	EvProbeRX
	// EvWindow: a pair recomputed its Eqn-3 window from a response (A =
	// pair id, B = window bytes, V = share bits/s).
	EvWindow
	// EvStage: a pair's two-stage admission changed stage (A = pair id,
	// Note = "ramp"/"steady").
	EvStage
	// EvMigration: a pair migrated paths (A = pair id, B = new path
	// index, Note = "urgent" for violation-triggered moves).
	EvMigration
	// EvFreeze: a migration attempt was suppressed by the freeze window
	// (A = pair id).
	EvFreeze
	// EvRegister: a μFAB-C register changed from a probe (A = Φ delta in
	// millitokens, B = W delta in bytes, Note = "update"/"remove").
	EvRegister
	// EvDrop: the dataplane dropped a packet (A = packet kind, B = queue
	// bytes, Note = "overflow"/"fault"/"failed"/"noroute").
	EvDrop
	// EvFault: a fault transition. From the chaos injector (Entity
	// "chaos.injector"): Note = event kind, A = 1 when applied, 0 when
	// rejected. From the dataplane (Entity "dataplane.node"): A = node id,
	// B = 1 down / 0 recovered, Note = "fail"/"recover" — the stream the
	// ctlplane reconciler subscribes to for node health.
	EvFault
	// EvTenant: a tenant arrived or departed (A = VF id, Note =
	// "arrive"/"depart").
	EvTenant
	// EvPlacement: the admission controller decided a tenant request (A =
	// request/VF id, B = VM count, V = guarantee bits/s, Note =
	// "admit"/"reject"/"place"/"release").
	EvPlacement
)

var eventKindNames = [...]string{
	EvProbeTX:   "probe_tx",
	EvProbeRX:   "probe_rx",
	EvWindow:    "window",
	EvStage:     "stage",
	EvMigration: "migration",
	EvFreeze:    "freeze",
	EvRegister:  "register",
	EvDrop:      "drop",
	EvFault:     "fault",
	EvTenant:    "tenant",
	EvPlacement: "placement",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flight-recorder entry. The fields are fixed scalars plus
// two strings that call sites keep constant or precomputed, so recording
// an event never allocates.
type Event struct {
	// T is simulated time in picoseconds.
	T    int64
	Kind EventKind
	// Entity is the dotted instance the event belongs to, e.g. "ufabe.h3"
	// or "link.core1-agg2" (precomputed at attach time).
	Entity string
	// A and B carry kind-specific scalars (see the EventKind docs).
	A, B int64
	// V carries a kind-specific float (rate, RTT, ...).
	V float64
	// Note is a short constant tag ("urgent", "overflow", ...).
	Note string
	// Trace groups causally related events (one probe round trip, one
	// admission decision, one migration) into a trace. Span distinguishes
	// steps within the trace. Both are pure functions of scheduling
	// context (SpanID over pair/sequence scalars — never wall clock or
	// worker identity), so traces are byte-identical across -jobs and
	// -shards. Zero means "not part of a trace" and is omitted from JSON.
	Trace, Span uint64
}

// Trace-id domains: the first argument to SpanID namespaces the trace so
// a probe round trip, a migration, and an admission decision over the same
// scalar ids never collide. Shared here so every layer (ufabe edges, ufabc
// core hops, the placement controller) derives identical ids.
const (
	TraceProbe     int64 = 1
	TraceMigration int64 = 2
	TraceAdmission int64 = 3
)

// SpanID derives a deterministic 64-bit trace or span identifier from
// scheduling-context scalars via FNV-1a. Call sites pass stable inputs
// (pair id, path index, probe sequence, request id) so the id — and with
// it the exported trace — is independent of worker count and shard layout.
func SpanID(parts ...int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		v := uint64(p)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	if h == 0 { // 0 is the "no trace" sentinel
		h = offset64
	}
	return h
}

// DefaultRecorderCap bounds the flight recorder's ring buffer (64k events
// ≈ 5.5 MB). Deep enough to hold the full tail of any quick-scale run; long
// runs keep the most recent window, which is what post-mortem debugging
// wants.
const DefaultRecorderCap = 1 << 16

// recorderChunk is how many events one chunk of a ring holds: 1024 × 88 B is
// eleven 8 KiB pages exactly, so the allocator rounds nothing up.
const (
	recorderChunkShift = 10
	recorderChunk      = 1 << recorderChunkShift
)

// Recorder is the run-trace flight recorder: a bounded in-memory ring of
// structured events. Record is a safe no-op on a nil receiver, which is
// the disabled fast path. A Recorder is single-goroutine, like the
// simulation engine that feeds it.
//
// The ring's cap slots are numbered 0..cap-1 and event number k (the k-th
// ever recorded, from 0) lives in slot k mod cap. Slot i is
// chunks[i/recorderChunk][i%recorderChunk]; a chunk is allocated when the
// first event lands in it — the first lap fills slots in order, so that is
// always the next chunk — and is never copied or freed. Nothing is allocated
// up front, a recorder that sees k events holds ⌈k/recorderChunk⌉ chunks, and
// a full ring records without allocating.
type Recorder struct {
	chunks [][]Event
	cap    int
	total  uint64
	subs   []func(Event)
}

func newRecorder(capEvents int) *Recorder {
	return &Recorder{cap: capEvents}
}

// Record appends an event, overwriting the oldest once the ring is full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	slot := int(r.total % uint64(r.cap))
	r.total++
	for _, fn := range r.subs {
		fn(ev)
	}
	c := slot >> recorderChunkShift
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Event, min(recorderChunk, r.cap-c*recorderChunk)))
	}
	r.chunks[c][slot&(recorderChunk-1)] = ev
}

// Subscribe registers fn to observe every subsequently recorded event,
// called synchronously from Record in recording order — subscribers see
// events the ring has already evicted. fn must not re-enter Record. A nil
// receiver ignores the subscription (the disabled fast path).
func (r *Recorder) Subscribe(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.subs = append(r.subs, fn)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(min(r.total, uint64(r.cap)))
}

// Total returns how many events were ever recorded (retained + evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events the ring has evicted: the retained window
// is events number Dropped() to Total()-1.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.Len())
}

// Events returns the retained events oldest-first. The slice is freshly
// allocated.
func (r *Recorder) Events() []Event {
	return r.EventsSince(0)
}

// EventsSince returns the events recorded after the first n, oldest first.
// Events the ring has already evicted are silently absent (callers that
// need a complete view size the ring accordingly, or compare n with
// Dropped()). The slice is freshly allocated and holds only the returned
// events.
func (r *Recorder) EventsSince(n uint64) []Event {
	n = max(n, r.Dropped())
	if n >= r.Total() {
		return nil
	}
	return r.AppendEventsSince(make([]Event, 0, r.total-n), n)
}

// AppendEventsSince is EventsSince into a slice the caller owns: the events
// are appended to dst, chunk by chunk, and dst is returned. A caller that
// drains a recorder every tick into the same slice allocates nothing once the
// slice has grown to its largest batch.
func (r *Recorder) AppendEventsSince(dst []Event, n uint64) []Event {
	if r == nil {
		return dst
	}
	n = max(n, r.Dropped())
	if n < r.total {
		// Exactly what is missing, not append's geometric guess: the first
		// drain of a run is its largest by far.
		dst = slices.Grow(dst, int(r.total-n))
	}
	for n < r.total {
		slot := int(n % uint64(r.cap))
		run := r.chunks[slot>>recorderChunkShift][slot&(recorderChunk-1):]
		if left := r.total - n; uint64(len(run)) > left {
			run = run[:left]
		}
		dst = append(dst, run...)
		n += uint64(len(run))
	}
	return dst
}

// EventBefore is the canonical content order used to merge per-shard
// flight-recorder streams into one trace: time first, then the event's
// fields in declaration order. It is a pure function of event content, so a
// merged trace is independent of how the simulation was sharded onto
// workers.
func EventBefore(a, b Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.V != b.V {
		return a.V < b.V
	}
	if a.Note != b.Note {
		return a.Note < b.Note
	}
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	return a.Span < b.Span
}

// before is EventBefore without copying either event unless their times tie.
func before(a, b *Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	return EventBefore(*a, *b)
}

// compareEvents is EventBefore as a three-way comparison.
func compareEvents(a, b Event) int {
	switch {
	case before(&a, &b):
		return -1
	case before(&b, &a):
		return 1
	}
	return 0
}

// MergeEvents hands emit the canonical merge of streams, one event at a time:
// all their events in the EventBefore order, events that compare equal (fully
// identical ones) in stream order and, within a stream, in recording order —
// exactly a stable sort of the streams' concatenation, which is what it
// replaces, without sorting what the recorders already ordered. A recorder's
// stream is non-decreasing in T, so a stream needs only its runs of equal T
// put in order before a k-way merge; a stream that is not is sorted whole.
// The streams' events are reordered in place and the slice headers in streams
// are consumed; the merge itself allocates nothing.
func MergeEvents(streams [][]Event, emit func(Event)) {
	for _, evs := range streams {
		for i := 0; i < len(evs); {
			j := i + 1
			for j < len(evs) && evs[j].T == evs[i].T {
				j++
			}
			if j < len(evs) && evs[j].T < evs[i].T {
				slices.SortStableFunc(evs, compareEvents)
				break
			}
			if j-i > 1 {
				slices.SortStableFunc(evs[i:j], compareEvents)
			}
			i = j
		}
	}
	for {
		best := -1
		for s, evs := range streams {
			if len(evs) > 0 && (best < 0 || before(&evs[0], &streams[best][0])) {
				best = s
			}
		}
		if best < 0 {
			return
		}
		emit(streams[best][0])
		streams[best] = streams[best][1:]
	}
}

// TraceEvents returns the run's full retained trace, oldest first: the base
// recorder's events for sequential runs, or the canonical merge of the base
// and every per-shard recorder for sharded runs.
func (r *Registry) TraceEvents() []Event {
	if r == nil {
		return nil
	}
	if len(r.shardRecs) == 0 {
		return r.rec.Events()
	}
	streams := make([][]Event, 0, 1+len(r.shardRecs))
	streams = append(streams, r.rec.Events())
	retained := r.rec.Len()
	for _, sr := range r.shardRecs {
		streams = append(streams, sr.Events())
		retained += sr.Len()
	}
	all := make([]Event, 0, retained)
	MergeEvents(streams, func(ev Event) { all = append(all, ev) })
	return all
}

// TraceTotals sums Total and Dropped across the base recorder and every
// per-shard recorder, so exporters can report ring completeness for the
// whole trace rather than one shard's slice of it.
func (r *Registry) TraceTotals() (total, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	total, dropped = r.rec.Total(), r.rec.Dropped()
	for _, sr := range r.shardRecs {
		total += sr.Total()
		dropped += sr.Dropped()
	}
	return total, dropped
}

// WriteTraceJSONL writes the run's trace as JSONL: identical to the base
// recorder's WriteJSONL for sequential runs, and the canonical shard merge
// for sharded runs. Exporters should prefer this over Recorder().WriteJSONL
// so they stay correct under `-shards`.
func (r *Registry) WriteTraceJSONL(w io.Writer) error {
	if r == nil || r.rec == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, ev := range r.TraceEvents() {
		WriteEventJSON(bw, ev)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first. The encoding is hand-rolled so field order is fixed and
// the output is byte-identical across runs with identical event streams.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, ev := range r.Events() {
		WriteEventJSON(bw, ev)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteEventJSON writes one event as a single JSON object (no trailing
// newline), fields in fixed order with zero-valued fields omitted — the
// encoding WriteJSONL uses per line, exported so other emitters (the
// audit findings log) embed events byte-identically.
func WriteEventJSON(bw *bufio.Writer, ev Event) {
	bw.WriteString(`{"t_ps":`)
	bw.WriteString(strconv.FormatInt(ev.T, 10))
	bw.WriteString(`,"kind":"`)
	bw.WriteString(ev.Kind.String())
	bw.WriteByte('"')
	if ev.Entity != "" {
		bw.WriteString(`,"entity":`)
		bw.WriteString(strconv.Quote(ev.Entity))
	}
	if ev.A != 0 {
		bw.WriteString(`,"a":`)
		bw.WriteString(strconv.FormatInt(ev.A, 10))
	}
	if ev.B != 0 {
		bw.WriteString(`,"b":`)
		bw.WriteString(strconv.FormatInt(ev.B, 10))
	}
	if ev.V != 0 {
		bw.WriteString(`,"v":`)
		bw.WriteString(strconv.FormatFloat(ev.V, 'g', -1, 64))
	}
	if ev.Note != "" {
		bw.WriteString(`,"note":`)
		bw.WriteString(strconv.Quote(ev.Note))
	}
	if ev.Trace != 0 {
		bw.WriteString(`,"trace":`)
		bw.WriteString(strconv.FormatUint(ev.Trace, 10))
	}
	if ev.Span != 0 {
		bw.WriteString(`,"span":`)
		bw.WriteString(strconv.FormatUint(ev.Span, 10))
	}
	bw.WriteByte('}')
}
