// Package telemetry is the unified introspection substrate of the μFAB
// reproduction: a deterministic metrics registry (typed counters, gauges,
// and ring-buffer time series keyed by a dotted `entity.instance.metric`
// name scheme, e.g. `ufabe.h3.migrations` or `link.core1-agg2.qlen_bytes`)
// plus a run-trace "flight recorder" (see Recorder) that captures
// timestamped structured events into a bounded in-memory buffer with JSONL
// export.
//
// Two properties are load-bearing:
//
//   - Determinism. Snapshots order every instrument by name, so two runs
//     with the same seed serialize byte-identically regardless of map
//     iteration order or how many runner workers executed them.
//
//   - Zero overhead when disabled. Every instrument method is a safe no-op
//     on a nil receiver, and a nil *Registry returns nil instruments, so
//     uninstrumented runs pay only a nil check per call site — no
//     allocation, no branch misprediction of note, and bit-identical
//     simulation results (instruments never feed back into the run).
//
// Instruments are created at setup time (map lookup under a mutex) and
// updated on the simulation goroutine; a Registry may be shared across
// goroutines only for instrument creation, which is how the parallel
// experiment runner uses one registry per run safely.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Counter is a monotonically increasing int64 instrument. All methods are
// safe no-ops on a nil receiver — the disabled fast path.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (negative deltas are allowed for churn-style accounting).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value float64 instrument. All methods are safe no-ops on
// a nil receiver.
type Gauge struct {
	v float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// SetMax stores v if it exceeds the current value — high-water marks.
func (g *Gauge) SetMax(v float64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Point is one time-series sample. T is simulated time in picoseconds
// (kept as int64 rather than sim.Time so the package stays import-free of
// the engine and every layer can depend on it).
type Point struct {
	T int64   `json:"t_ps"`
	V float64 `json:"v"`
}

// Series is a bounded ring-buffer time series: once Cap points have been
// added, the oldest are overwritten. All methods are safe no-ops on a nil
// receiver.
type Series struct {
	cap     int
	buf     []Point
	start   int    // index of the oldest point when the ring has wrapped
	total   uint64 // points ever added
	wrapped bool
}

// defaultSeriesCap bounds a time series when no explicit capacity is given
// (64k points ≈ 1 MB — deep enough for every experiment's sampling loop).
const defaultSeriesCap = 1 << 16

// Add appends a sample.
func (s *Series) Add(tPS int64, v float64) {
	if s == nil {
		return
	}
	s.total++
	if !s.wrapped && len(s.buf) < s.cap {
		s.buf = append(s.buf, Point{T: tPS, V: v})
		return
	}
	s.wrapped = true
	s.buf[s.start] = Point{T: tPS, V: v}
	s.start++
	if s.start == s.cap {
		s.start = 0
	}
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.buf)
}

// Total returns how many points were ever added (retained + overwritten).
func (s *Series) Total() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Points returns the retained samples in insertion order. The slice is
// freshly allocated; mutating it does not affect the series.
func (s *Series) Points() []Point {
	if s == nil || len(s.buf) == 0 {
		return nil
	}
	out := make([]Point, 0, len(s.buf))
	out = append(out, s.buf[s.start:]...)
	out = append(out, s.buf[:s.start]...)
	return out
}

// Registry holds every instrument of one run. The zero value is not usable;
// call New. A nil *Registry is the "telemetry disabled" sentinel: all its
// methods return nil instruments whose operations are free no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	series     map[string]*Series
	histograms map[string]*Histogram
	rec        *Recorder
	// shardRecs are the per-shard flight recorders of a sharded run:
	// each simulation shard records into its own ring (single-goroutine,
	// like the shard engine), and exports merge them canonically. Empty
	// for sequential runs.
	shardRecs []*Recorder
}

// New returns an empty registry (no flight recorder; see EnableRecorder).
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		series:     make(map[string]*Series),
		histograms: make(map[string]*Histogram),
	}
}

// checkName panics on names that would break the dotted scheme or the
// JSONL/CSV encodings: empty, whitespace, or missing a dot separator.
// Instrument creation happens at setup time, so a panic here is a build
// error caught by the first test run, never a mid-simulation surprise.
func checkName(name string) {
	if name == "" {
		panic("telemetry: empty instrument name")
	}
	dotted := false
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == '.':
			if i == 0 || i == len(name)-1 || name[i-1] == '.' {
				panic(fmt.Sprintf("telemetry: malformed dotted name %q", name))
			}
			dotted = true
		case c == ' ' || c == '\t' || c == '\n' || c == ',':
			panic(fmt.Sprintf("telemetry: name %q contains whitespace/comma", name))
		}
	}
	if !dotted {
		panic(fmt.Sprintf("telemetry: name %q is not dotted (want entity.instance.metric)", name))
	}
}

// Counter returns (creating on first use) the counter with the given
// dotted name. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given dotted
// name. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Series returns (creating on first use) the ring-buffer time series with
// the given dotted name. capHint bounds the ring on creation; <=0 uses
// defaultSeriesCap. Returns nil on a nil registry.
func (r *Registry) Series(name string, capHint int) *Series {
	if r == nil {
		return nil
	}
	checkName(name)
	if capHint <= 0 {
		capHint = defaultSeriesCap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[name]
	if s == nil {
		s = &Series{cap: capHint}
		r.series[name] = s
	}
	return s
}

// EnableRecorder attaches a flight recorder with the given event capacity
// (<=0 uses defaultRecorderCap) and returns it. Idempotent: a second call
// returns the existing recorder unchanged.
func (r *Registry) EnableRecorder(capEvents int) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec == nil {
		if capEvents <= 0 {
			capEvents = defaultRecorderCap
		}
		r.rec = newRecorder(capEvents)
	}
	return r.rec
}

// Recorder returns the attached flight recorder, or nil when none (the
// disabled fast path: recording into a nil recorder is a free no-op). In a
// sharded run it is the base recorder, reserved for coordinator-context
// events; which shard recorder a node's agents use is the network's
// business (dataplane.Network.RecorderAt).
func (r *Registry) Recorder() *Recorder {
	if r == nil {
		return nil
	}
	return r.rec
}

// EnableShardRecorders attaches n per-shard recorders (in addition to the
// base recorder, which a sharded run reserves for coordinator-context
// events such as chaos injections). Each has a ring of its own of
// capEvents events (<= 0: defaultRecorderCap), so a run retains up to
// 1 + n rings' worth: vfabric.Build asks for one per logical shard, which
// is nine rings on a k=8 fat tree. Idempotent for the same n; growing or
// shrinking an existing set panics, since agents already hold pointers.
func (r *Registry) EnableShardRecorders(n, capEvents int) []*Recorder {
	if r == nil || n <= 0 {
		return nil
	}
	if capEvents <= 0 {
		capEvents = defaultRecorderCap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shardRecs != nil {
		if len(r.shardRecs) != n {
			panic(fmt.Sprintf("telemetry: shard recorders already sized %d, want %d", len(r.shardRecs), n))
		}
		return r.shardRecs
	}
	r.shardRecs = make([]*Recorder, n)
	for i := range r.shardRecs {
		r.shardRecs[i] = newRecorder(capEvents)
	}
	return r.shardRecs
}

// ShardRecorders returns the per-shard recorders (nil for sequential runs).
func (r *Registry) ShardRecorders() []*Recorder {
	if r == nil {
		return nil
	}
	return r.shardRecs
}

// Token sanitizes s into one dotted-name segment: lowercased, with
// whitespace, dots and commas replaced by '-'. Used to turn node and link
// names ("Core1", "Agg2→S3") into instance tokens.
func Token(s string) string {
	out := make([]byte, 0, len(s))
	for _, c := range []byte(s) {
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		case c == ' ' || c == '\t' || c == '.' || c == ',' || c == '\n':
			out = append(out, '-')
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return "x"
	}
	return string(out)
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
