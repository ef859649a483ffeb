package telemetry

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// two strings that call sites keep constant or precomputed: a recorder
// stores each distinct string once and an event as a variable-length record
// of the fields it carries, so recording an event allocates only when it
// opens or outgrows a chunk of the ring or brings a string the recorder has
// not seen.
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

// defaultRecorderCap bounds a flight-recorder ring: 64k events, about
// 1.3 MiB of records once full at the ~20 bytes an instrumented fabric's
// event takes (DESIGN.md "The instruments keep what they saw"). The cap is
// per recorder, and vfabric.Build gives the base recorder and each logical
// shard a ring of its own (nine on a k=8 fat tree). Deep enough to hold the
// full tail of any quick-scale run; long runs keep the most recent window,
// which is what post-mortem debugging wants.
const defaultRecorderCap = 1 << 16

// recorderChunk is how many events one chunk of a ring holds at most: a ring
// of cap events cuts its window into ⌈cap/recorderChunk⌉ chunks as even as
// they come, so a default ring's chunks hold 1024 and a smaller ring's one
// chunk its cap.
const recorderChunk = 1 << 10

// stageBytes is the room, per event, a ring's staging buffer is made with:
// an instrumented fabric's register/probe mix needs 17 to 24 bytes.
const stageBytes = 24

// A ring stores an Event as a variable-length record:
//
//	kind   1 byte
//	len    1 byte, the record's length including these two
//	ΔT     varint, zigzag: T minus the T of the chunk's previous record
//	       (minus 0 for a chunk's first)
//	entity uvarint: the entity's string id << 2 | recV | recTrace
//	note   uvarint: the note's string id, or spilled
//	A, B   varint, zigzag
//	Span   uvarint
//	V      8 bytes, math.Float64bits(V) little-endian, when recV is set
//	Trace  8 bytes little-endian, when recTrace is set
//
// V and Trace are present only when their bits are not 0, so -0.0 and NaN
// payloads survive. A record is at most maxRecord bytes, which the length
// byte holds. The kind and the length lead, so a reader passes over a record
// it does not want by reading them and ΔT.
const (
	recV      = 1 << 0
	recTrace  = 1 << 1
	maxRecord = 2 + 10 + 4 + 4 + 10 + 10 + 10 + 8 + 8
)

// spilled is the note id of an event whose strings are not in the string
// table but in Recorder.spill, and the table's size limit: every id in it
// fits 24 bits, shifted left by 2 fits the entity's 4-byte uvarint, and
// differs from spilled.
const spilled = 1<<24 - 1

// Recorder is the run-trace flight recorder: a bounded in-memory ring of
// structured events. Record is a safe no-op on a nil receiver, which is
// the disabled fast path. A Recorder is single-goroutine, like the
// simulation engine that feeds it.
//
// Events are numbered from 0 in recording order and the ring retains the
// last cap of them, numbers Dropped() to Total()-1. Chunk q holds events
// q·per to q·per+per-1 as consecutive records (recorderChunk) in
// chunks[q mod span], where span = ⌈cap/per⌉ + 1, so the chunk a new one
// replaces, q − span, holds only evicted events, and the ring keeps about a
// chunk of them beside its window, which readers pass over. A chunk is a
// []byte, so the garbage collector never reads the ring.
//
// The chunk being filled is the recorder's staging buffer, which grows to
// the most bytes a chunk has needed. A full chunk is copied out of it into
// the buffer its slot held a lap before, or when there is none (the first
// lap) or it is too small, into a new one of its size and a sixteenth more.
// So a recorder that sees k events holds ⌈k/per⌉ chunks (at most span), and
// a full ring of a steady mix records without allocating.
type Recorder struct {
	chunks [][]byte
	per    int    // events per chunk
	span   int    // chunks a full ring cycles through
	cur    int    // chunks index of the chunk being filled, the staging buffer
	fill   int    // events in it
	lastT  int64  // T of its last record
	spare  []byte // the buffer chunks[cur] held a lap before, or nil
	cap    int
	total  uint64
	subs   []func(Event)

	// strs[id] is the string interned as id, strs[0] is "", and ids maps
	// back. Call sites pass constants or names fixed at attach time, so the
	// table stops growing after a run's first events. It holds at most
	// maxStrs strings (spilled; tests lower it): an event with a string that
	// does not fit keeps both its strings in spill, under its event number,
	// until its chunk is reused.
	strs    []string
	ids     map[string]uint32
	maxStrs int
	spill   map[uint64][2]string
}

func newRecorder(capEvents int) *Recorder {
	chunks := (capEvents + recorderChunk - 1) / recorderChunk
	per := (capEvents + chunks - 1) / chunks
	// No chunk yet, as if a full one came before: the first Record opens one.
	return &Recorder{per: per, span: (capEvents+per-1)/per + 1, cur: -1, fill: per,
		cap: capEvents, strs: []string{""}, maxStrs: spilled}
}

// Record appends an event, evicting the oldest once the ring is full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	k := r.total
	r.total++
	for _, fn := range r.subs {
		fn(ev)
	}
	if r.fill == r.per {
		r.openChunk(k)
	}
	entity, okEntity := r.intern(ev.Entity)
	note, okNote := r.intern(ev.Note)
	if !okEntity || !okNote {
		if r.spill == nil {
			r.spill = make(map[uint64][2]string)
		}
		r.spill[k] = [2]string{ev.Entity, ev.Note}
		entity, note = 0, spilled
	}
	r.chunks[r.cur] = appendRecord(r.chunks[r.cur], &ev, r.lastT, entity, note)
	r.fill++
	r.lastT = ev.T
}

// openChunk seals the chunk being filled and starts the one whose first
// event is number k in the staging buffer: in a new slot while the first lap
// lasts, else in the oldest, whose events — and spilled strings — have all
// been evicted.
func (r *Recorder) openChunk(k uint64) {
	var stage []byte
	if r.cur < 0 {
		stage = make([]byte, 0, r.per*stageBytes)
	} else {
		stage = r.chunks[r.cur]
		sealed := r.spare
		if cap(sealed) < len(stage) {
			sealed = make([]byte, 0, len(stage)+len(stage)/16)
		}
		r.chunks[r.cur] = append(sealed[:0], stage...)
	}
	r.cur, r.fill, r.lastT = r.cur+1, 0, 0
	if r.cur == r.span {
		r.cur = 0
	}
	if r.cur == len(r.chunks) {
		r.chunks, r.spare = append(r.chunks, stage[:0]), nil
		return
	}
	r.chunks[r.cur], r.spare = stage[:0], r.chunks[r.cur]
	if len(r.spill) > 0 {
		held := k - uint64((r.span-1)*r.per) // the first event of the oldest chunk kept
		for n := range r.spill {
			if n < held {
				delete(r.spill, n)
			}
		}
	}
}

// appendRecord appends ev's record to a chunk whose previous record has T
// prevT (0 when there is none).
func appendRecord(buf []byte, ev *Event, prevT int64, entity, note uint32) []byte {
	start := len(buf)
	buf = append(buf, byte(ev.Kind), 0)
	buf = binary.AppendUvarint(buf, zigzag(ev.T-prevT))
	vbits := math.Float64bits(ev.V)
	flags := uint64(entity) << 2
	if vbits != 0 {
		flags |= recV
	}
	if ev.Trace != 0 {
		flags |= recTrace
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(note))
	buf = binary.AppendUvarint(buf, zigzag(ev.A))
	buf = binary.AppendUvarint(buf, zigzag(ev.B))
	buf = binary.AppendUvarint(buf, ev.Span)
	if vbits != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, vbits)
	}
	if ev.Trace != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, ev.Trace)
	}
	buf[start+1] = byte(len(buf) - start)
	return buf
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// intern returns str's id in the string table, adding it if there is room.
func (r *Recorder) intern(str string) (uint32, bool) {
	if str == "" {
		return 0, true
	}
	if id, ok := r.ids[str]; ok {
		return id, true
	}
	if len(r.strs) >= r.maxStrs {
		return 0, false
	}
	if r.ids == nil {
		r.ids = make(map[string]uint32)
	}
	id := uint32(len(r.strs))
	r.strs = append(r.strs, str)
	r.ids[str] = id
	return id, true
}

// cursor is a reader's place in a ring: event number k, the chunk that holds
// it (chunks index c, and j, how many of its events come before k), the
// offset of k's record in it and the T of the record before.
type cursor struct {
	k     uint64
	c, j  int
	off   int
	prevT int64
}

// seek returns a cursor at event number k, which the ring retains or records
// next.
func (r *Recorder) seek(k uint64) cursor {
	q := k / uint64(r.per)
	c := cursor{k: q * uint64(r.per), c: int(q % uint64(r.span))}
	for c.k < k {
		r.skip(&c)
	}
	return c
}

// peek returns the kind and T of the record at c.
func (r *Recorder) peek(c *cursor) (EventKind, int64) {
	rec := r.chunks[c.c][c.off:]
	dt, _ := binary.Uvarint(rec[2:])
	return EventKind(rec[0]), c.prevT + unzigzag(dt)
}

// step moves c past its record, whose T is t.
func (r *Recorder) step(c *cursor, t int64) {
	c.k++
	if c.j++; c.j < r.per {
		c.off += int(r.chunks[c.c][c.off+1])
		c.prevT = t
		return
	}
	c.j, c.off, c.prevT = 0, 0, 0
	if c.c++; c.c == r.span {
		c.c = 0
	}
}

// skip moves c past its record undecoded.
func (r *Recorder) skip(c *cursor) {
	_, t := r.peek(c)
	r.step(c, t)
}

// read decodes the record at c and moves c past it.
func (r *Recorder) read(c *cursor) Event {
	rec := r.chunks[c.c][c.off:]
	ev := Event{Kind: EventKind(rec[0])}
	i := 2
	next := func() uint64 {
		u, n := binary.Uvarint(rec[i:])
		i += n
		return u
	}
	ev.T = c.prevT + unzigzag(next())
	flags := next()
	note := next()
	ev.A = unzigzag(next())
	ev.B = unzigzag(next())
	ev.Span = next()
	if flags&recV != 0 {
		ev.V = math.Float64frombits(binary.LittleEndian.Uint64(rec[i:]))
		i += 8
	}
	if flags&recTrace != 0 {
		ev.Trace = binary.LittleEndian.Uint64(rec[i:])
	}
	if note == spilled {
		strs := r.spill[c.k]
		ev.Entity, ev.Note = strs[0], strs[1]
	} else {
		ev.Entity, ev.Note = r.strs[flags>>2], r.strs[note]
	}
	r.step(c, ev.T)
	return ev
}

// each hands fn the retained events in recording order.
func (r *Recorder) each(fn func(Event)) {
	for c := r.seek(r.Dropped()); c.k < r.total; {
		fn(r.read(&c))
	}
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
	evs := make([]Event, 0, r.total-n)
	for c := r.seek(n); c.k < r.total; {
		evs = append(evs, r.read(&c))
	}
	return evs
}

// eventBefore is the canonical content order used to merge per-shard
// flight-recorder streams into one trace: time first, then the event's
// fields in declaration order. It is a pure function of event content, so a
// merged trace is independent of how the simulation was sharded onto
// workers.
func eventBefore(a, b Event) bool {
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

// compareEvents is eventBefore as a three-way comparison.
func compareEvents(a, b Event) int {
	switch {
	case eventBefore(a, b):
		return -1
	case eventBefore(b, a):
		return 1
	}
	return 0
}

// Merge returns a reader that merges recs' rings where they lie. Each call
// hands emit, in eventBefore order, the events of the kinds keep accepts
// (every kind when keep is nil) that the recorders recorded since the
// previous call — since they began, on the first — and still retain, and
// returns how many events of any kind the rings evicted unread in between.
//
// The order is exactly that of a stable sort of the recorders' streams,
// concatenated in recs order, filtered afterwards. eventBefore orders by T
// first, so that is one stable sort per timestamp, and a recorder's stream is
// non-decreasing in T, so the reader gathers each timestamp's events from the
// recorders in turn into scratch it keeps, sorts them and hands them on. (It
// checks: when some recorder is out of T order, it sorts everything new at
// once.) Records of other kinds are passed over undecoded, and a warm reader
// allocates nothing. emit must not record into recs; nil recorders are
// skipped.
func Merge(recs []*Recorder, keep func(EventKind) bool, emit func(Event)) func() (missed uint64) {
	m := &ringMerge{emit: emit}
	for _, r := range recs {
		if r != nil {
			m.recs = append(m.recs, r)
		}
	}
	m.next = make([]cursor, len(m.recs))
	m.end = make([]uint64, len(m.recs))
	for k := range m.keep {
		m.keep[k] = keep == nil || keep(EventKind(k))
	}
	return m.drain
}

// ringMerge is the state of a Merge reader.
type ringMerge struct {
	recs []*Recorder
	keep [256]bool
	emit func(Event)
	// Per recorder, the place of the first event not yet read and, during a
	// drain, the number of the first event recorded after it began.
	next  []cursor
	end   []uint64
	group []Event // the events gathered for the next sort
}

func (m *ringMerge) drain() (missed uint64) {
	ordered := true
	for i, r := range m.recs {
		from := max(m.next[i].k, r.Dropped())
		if from != m.next[i].k {
			missed += from - m.next[i].k
			m.next[i] = r.seek(from)
		}
		m.end[i] = r.total
		ordered = ordered && m.ordered(i)
	}
	if !ordered {
		for i, r := range m.recs {
			for c := &m.next[i]; c.k < m.end[i]; {
				if kind, _ := r.peek(c); m.keep[kind] {
					m.group = append(m.group, r.read(c))
				} else {
					r.skip(c)
				}
			}
		}
		m.flush()
		return missed
	}
	for {
		t, found := int64(0), false
		for i := range m.recs {
			if ht, ok := m.head(i); ok && (!found || ht < t) {
				t, found = ht, true
			}
		}
		if !found {
			return missed
		}
		for i := range m.recs {
			m.take(i, t)
		}
		m.flush()
	}
}

// ordered reports whether recorder i's unread kept events are non-decreasing
// in T.
func (m *ringMerge) ordered(i int) bool {
	r, last := m.recs[i], int64(math.MinInt64)
	for c := m.next[i]; c.k < m.end[i]; {
		kind, t := r.peek(&c)
		if m.keep[kind] {
			if t < last {
				return false
			}
			last = t
		}
		r.step(&c, t)
	}
	return true
}

// head returns the T of recorder i's next unread kept event, passing over
// the records of other kinds before it.
func (m *ringMerge) head(i int) (int64, bool) {
	r, c := m.recs[i], &m.next[i]
	for c.k < m.end[i] {
		kind, t := r.peek(c)
		if m.keep[kind] {
			return t, true
		}
		r.step(c, t)
	}
	return 0, false
}

// take gathers recorder i's unread kept events at time t.
func (m *ringMerge) take(i int, t int64) {
	r, c := m.recs[i], &m.next[i]
	for c.k < m.end[i] {
		kind, ht := r.peek(c)
		if !m.keep[kind] {
			r.step(c, ht)
			continue
		}
		if ht != t {
			return
		}
		m.group = append(m.group, r.read(c))
	}
}

// flush hands emit the gathered events in stable eventBefore order.
func (m *ringMerge) flush() {
	slices.SortStableFunc(m.group, compareEvents)
	for i := range m.group {
		m.emit(m.group[i])
	}
	m.group = m.group[:0]
}

// eachTraceEvent hands emit the run's retained trace, oldest first: the base
// recorder's events in recording order when the run has no per-shard
// recorders, or else the canonical Merge of the base and every per-shard
// recorder.
func (r *Registry) eachTraceEvent(emit func(Event)) {
	if len(r.shardRecs) == 0 {
		r.rec.each(emit)
		return
	}
	Merge(append([]*Recorder{r.rec}, r.shardRecs...), nil, emit)()
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
	return writeJSONL(w, r.eachTraceEvent)
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first. The encoding is hand-rolled so field order is fixed and
// the output is byte-identical across runs with identical event streams.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	return writeJSONL(w, r.each)
}

func writeJSONL(w io.Writer, events func(emit func(Event))) error {
	bw := bufio.NewWriter(w)
	events(func(ev Event) {
		WriteEventJSON(bw, ev)
		bw.WriteByte('\n')
	})
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
		bw.WriteString(JSONFloat(ev.V))
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
