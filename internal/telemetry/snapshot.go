package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// Snapshot is a point-in-time copy of every instrument in a registry, with
// all names in ascending order so serialization is deterministic.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
	Series     []SeriesValue    `json:"series,omitempty"`
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram in a snapshot: summary statistics plus
// the non-zero buckets sparsely (per-bucket counts, not cumulative).
type HistogramValue struct {
	Name    string            `json:"name"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Buckets []HistogramBucket `json:"buckets"`
}

// SeriesValue is one time series in a snapshot. Total counts points ever
// added; len(Points) is what the ring retained.
type SeriesValue struct {
	Name   string  `json:"name"`
	Total  uint64  `json:"total"`
	Points []Point `json:"points"`
}

// Snapshot copies every instrument's current value, sorted by name. Safe
// on a nil registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		snap.Histograms = append(snap.Histograms, HistogramValue{
			Name: name, Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			Buckets: h.Buckets(),
		})
	}
	for _, name := range sortedKeys(r.series) {
		s := r.series[name]
		snap.Series = append(snap.Series, SeriesValue{Name: name, Total: s.Total(), Points: s.Points()})
	}
	return snap
}

// CounterValue returns the named counter's current value (0 if absent or
// nil registry) without creating the instrument.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Value()
}

// GaugeValue returns the named gauge's current value (0 if absent or nil
// registry) without creating the instrument.
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name].Value()
}

// Diff returns the instrument deltas between prev and s: every counter or
// gauge whose value changed, carrying value − previous (instruments absent
// from prev diff against zero). Series are omitted — their rings already
// retain history. Both snapshots must come from Registry.Snapshot (sorted
// by name); the result is sorted the same way.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	var out Snapshot
	i := 0
	for _, c := range s.Counters {
		for i < len(prev.Counters) && prev.Counters[i].Name < c.Name {
			i++
		}
		var base int64
		if i < len(prev.Counters) && prev.Counters[i].Name == c.Name {
			base = prev.Counters[i].Value
		}
		if d := c.Value - base; d != 0 {
			out.Counters = append(out.Counters, CounterValue{Name: c.Name, Value: d})
		}
	}
	i = 0
	for _, g := range s.Gauges {
		for i < len(prev.Gauges) && prev.Gauges[i].Name < g.Name {
			i++
		}
		var base float64
		if i < len(prev.Gauges) && prev.Gauges[i].Name == g.Name {
			base = prev.Gauges[i].Value
		}
		if d := g.Value - base; d != 0 {
			out.Gauges = append(out.Gauges, GaugeValue{Name: g.Name, Value: d})
		}
	}
	return out
}

// WriteJSON writes the snapshot as deterministic JSON: instruments sorted
// by name, fields in fixed order, floats in Go's shortest 'g' form. Two
// snapshots of identical runs serialize byte-identically.
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n  \"counters\": [")
	for i, c := range s.Counters {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    {\"name\": ")
		bw.WriteString(strconv.Quote(c.Name))
		bw.WriteString(", \"value\": ")
		bw.WriteString(strconv.FormatInt(c.Value, 10))
		bw.WriteByte('}')
	}
	if len(s.Counters) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("],\n  \"gauges\": [")
	for i, g := range s.Gauges {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    {\"name\": ")
		bw.WriteString(strconv.Quote(g.Name))
		bw.WriteString(", \"value\": ")
		bw.WriteString(JSONFloat(g.Value))
		bw.WriteByte('}')
	}
	if len(s.Gauges) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("],\n  \"histograms\": [")
	for i, h := range s.Histograms {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    {\"name\": ")
		bw.WriteString(strconv.Quote(h.Name))
		bw.WriteString(", \"count\": ")
		bw.WriteString(strconv.FormatUint(h.Count, 10))
		bw.WriteString(", \"sum\": ")
		bw.WriteString(JSONFloat(h.Sum))
		bw.WriteString(", \"min\": ")
		bw.WriteString(JSONFloat(h.Min))
		bw.WriteString(", \"max\": ")
		bw.WriteString(JSONFloat(h.Max))
		bw.WriteString(", \"buckets\": [")
		for j, b := range h.Buckets {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString("[")
			bw.WriteString(JSONFloat(b.UpperBound))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatUint(b.Count, 10))
			bw.WriteByte(']')
		}
		bw.WriteString("]}")
	}
	if len(s.Histograms) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("],\n  \"series\": [")
	for i, sv := range s.Series {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n    {\"name\": ")
		bw.WriteString(strconv.Quote(sv.Name))
		bw.WriteString(", \"total\": ")
		bw.WriteString(strconv.FormatUint(sv.Total, 10))
		bw.WriteString(", \"points\": [")
		for j, p := range sv.Points {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString("[")
			bw.WriteString(strconv.FormatInt(p.T, 10))
			bw.WriteByte(',')
			bw.WriteString(JSONFloat(p.V))
			bw.WriteByte(']')
		}
		bw.WriteString("]}")
	}
	if len(s.Series) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush()
}

// JSONFloat renders v in shortest round-trip form; NaN/Inf (not valid
// JSON) become null so a stray unfinished metric can't corrupt the file.
// The snapshot, trace, Perfetto and audit-findings encoders all write their
// floats with it.
func JSONFloat(v float64) string {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
