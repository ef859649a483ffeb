package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	r := New()
	h := r.Histogram("ufabe.h3.probe_rtt_us")
	if r.Histogram("ufabe.h3.probe_rtt_us") != h {
		t.Fatalf("second Histogram call should return the same instrument")
	}
	for _, v := range []float64{1, 2, 4, 8, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 115 {
		t.Fatalf("sum = %g, want 115", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %g/%g, want 1/100", h.Min(), h.Max())
	}
	bks := h.Buckets()
	var total uint64
	for i, b := range bks {
		total += b.Count
		if i > 0 && bks[i-1].UpperBound >= b.UpperBound {
			t.Fatalf("buckets not ascending: %v", bks)
		}
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", total)
	}
}

// TestHistogramBucketLayout checks the index/bound pair agree: every
// observation lands in a bucket whose bound brackets it.
func TestHistogramBucketLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := math.Ldexp(rng.Float64()+0.5, rng.Intn(60)-20)
		idx := bucketIndex(v)
		if idx <= 0 || idx >= histNumBuckets {
			t.Fatalf("bucketIndex(%g) = %d out of positive range", v, idx)
		}
		lo, hi := bucketUpperBound(idx-1), bucketUpperBound(idx)
		if !(v > lo || idx == 1) || v > hi {
			t.Fatalf("v=%g not in bucket %d bounds (%g, %g]", v, idx, lo, hi)
		}
	}
	// Relative bucket width stays under ~1/histSubBuckets.
	for i := 2; i < histNumBuckets-1; i++ {
		lo, hi := bucketUpperBound(i-1), bucketUpperBound(i)
		if rel := (hi - lo) / lo; rel > 1.0/histSubBuckets*1.01 {
			t.Fatalf("bucket %d relative width %g too coarse", i, rel)
		}
	}
	// Edge cases: non-positive and NaN go to the underflow bucket, huge
	// values to the overflow bucket.
	for _, v := range []float64{0, -1, math.NaN()} {
		if bucketIndex(v) != 0 {
			t.Fatalf("bucketIndex(%g) = %d, want 0", v, bucketIndex(v))
		}
	}
	for _, v := range []float64{1e300, math.Inf(1)} {
		if idx := bucketIndex(v); idx != histNumBuckets-1 {
			t.Fatalf("overflow bucketIndex(%g) = %d, want %d", v, idx, histNumBuckets-1)
		}
	}
	if !math.IsInf(bucketUpperBound(histNumBuckets-1), 1) {
		t.Fatalf("last bucket bound must be +Inf")
	}
	if bucketUpperBound(0) != 0 {
		t.Fatalf("underflow bucket bound must be 0")
	}
}

// TestHistogramMergeExact: merging shard-local histograms must equal the
// histogram that observed the union stream — the property the per-tenant
// FCT aggregation relies on.
func TestHistogramMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	whole := &Histogram{}
	parts := []*Histogram{{}, {}, {}}
	for i := 0; i < 5000; i++ {
		// Integer values keep every partial sum exact, so summary
		// equality below is independent of addition order.
		v := float64(rng.Intn(1<<20) + 1)
		whole.Observe(v)
		parts[i%3].Observe(v)
	}
	merged := &Histogram{}
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged summary differs: %d/%g vs %d/%g",
			merged.Count(), merged.Sum(), whole.Count(), whole.Sum())
	}
	if !slices.Equal(merged.Buckets(), whole.Buckets()) {
		t.Fatalf("merged bucket counts differ from whole-stream histogram")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0, 1, 0},
		{1, 1000, 0},
		{0.5, 500, 0.10},
		{0.99, 990, 0.10},
	} {
		got := h.Quantile(tc.q)
		if tc.tol == 0 {
			if got != tc.want {
				t.Fatalf("q%g = %g, want exactly %g", tc.q, got, tc.want)
			}
			continue
		}
		if math.Abs(got-tc.want)/tc.want > tc.tol {
			t.Fatalf("q%g = %g, want %g within %g%%", tc.q, got, tc.want, tc.tol*100)
		}
	}
}

// TestHistogramSnapshotJSON locks the snapshot section's shape and its
// determinism across instrument-creation orders.
func TestHistogramSnapshotJSON(t *testing.T) {
	build := func(flip bool) string {
		r := New()
		names := []string{"fct.vf1-a-b.us", "fct.vf2-c-d.us"}
		if flip {
			names[0], names[1] = names[1], names[0]
		}
		for _, n := range names {
			h := r.Histogram(n)
			h.Observe(1)
			h.Observe(2.5)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(false), build(true)
	if a != b {
		t.Fatalf("histogram snapshot differs by creation order:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Contains([]byte(a), []byte(`"histograms": [`)) ||
		!bytes.Contains([]byte(a), []byte(`"name": "fct.vf1-a-b.us", "count": 2, "sum": 3.5, "min": 1, "max": 2.5`)) {
		t.Fatalf("unexpected histogram snapshot JSON:\n%s", a)
	}
}

// denseHistogram is the layout Histogram had before it kept only the span of
// buckets it has seen: every bucket of the global layout in one array, the
// underflow bucket first. TestHistogramMatchesDense holds Histogram to it.
type denseHistogram struct {
	count         uint64
	sum, min, max float64
	counts        [histNumBuckets]uint64
}

func (h *denseHistogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketIndex(v)]++
}

func (h *denseHistogram) merge(o *denseHistogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *denseHistogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketUpperBound(i - 1)
			}
			hi := bucketUpperBound(i)
			if math.IsInf(hi, 1) {
				hi = h.max
			}
			v := lo + (hi-lo)*(rank-cum)/float64(c)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

func (h *denseHistogram) buckets() []HistogramBucket {
	if h.count == 0 {
		return nil
	}
	var out []HistogramBucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, HistogramBucket{UpperBound: bucketUpperBound(i), Count: c})
		}
	}
	return out
}

// sameHistogram reports the first way h differs from the dense model d, bit
// for bit, or "".
func sameHistogram(h *Histogram, d *denseHistogram) string {
	bits := math.Float64bits
	if h.Count() != d.count || bits(h.Sum()) != bits(d.sum) || bits(h.Min()) != bits(d.min) || bits(h.Max()) != bits(d.max) {
		return fmt.Sprintf("summary %d/%v/%v/%v, dense %d/%v/%v/%v", h.Count(), h.Sum(), h.Min(), h.Max(), d.count, d.sum, d.min, d.max)
	}
	got, want := h.Buckets(), d.buckets()
	if len(got) != len(want) {
		return fmt.Sprintf("%d buckets, dense %d", len(got), len(want))
	}
	for i := range got {
		if bits(got[i].UpperBound) != bits(want[i].UpperBound) || got[i].Count != want[i].Count {
			return fmt.Sprintf("bucket %d = %+v, dense %+v", i, got[i], want[i])
		}
	}
	for _, q := range []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2} {
		if g, w := h.Quantile(q), d.quantile(q); bits(g) != bits(w) {
			return fmt.Sprintf("q%v = %v, dense %v", q, g, w)
		}
	}
	return ""
}

// TestHistogramMatchesDense: a histogram that keeps the span of buckets it
// has seen answers Count, Sum, Min, Max, Buckets and Quantile bit for bit as
// the dense array did, for random streams of values ≤ 0, NaN, ±Inf, tiny,
// overflowing and ordinary ones drawn from a few octaves somewhere in the
// layout; merges of histograms whose spans are disjoint, overlapping,
// nested or empty match the dense merge; and Observe inside the span it has
// seen allocates nothing.
func TestHistogramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	odd := []float64{0, math.Copysign(0, -1), -1, -1e300, math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, 1e-300, math.Ldexp(1, histMinExp), math.Ldexp(1, histMaxExp), 1e300, math.MaxFloat64}
	value := func(octave int) float64 {
		if rng.Intn(10) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return math.Ldexp(0.5+rng.Float64()/2, octave+rng.Intn(3))
	}
	stream := func() (*Histogram, *denseHistogram) {
		h, d := &Histogram{}, &denseHistogram{}
		octave := histMinExp - 4 + rng.Intn(histMaxExp-histMinExp+8)
		for n := rng.Intn(200); n > 0; n-- {
			v := value(octave)
			h.Observe(v)
			d.observe(v)
		}
		return h, d
	}
	for trial := 0; trial < 300; trial++ {
		h, d := stream()
		if diff := sameHistogram(h, d); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
		for k := rng.Intn(4); k > 0; k-- {
			o, od := stream()
			h.Merge(o)
			d.merge(od)
			if diff := sameHistogram(h, d); diff != "" {
				t.Fatalf("trial %d, after a merge: %s", trial, diff)
			}
		}
		into := &Histogram{}
		into.Merge(h)
		if diff := sameHistogram(into, d); diff != "" {
			t.Fatalf("trial %d, merged into an empty histogram: %s", trial, diff)
		}
	}
	h := &Histogram{}
	for _, v := range []float64{1, 1e6, -1} {
		h.Observe(v)
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(1000); h.Observe(0); h.Observe(math.NaN()) }); a != 0 {
		t.Errorf("Observe inside the seen span allocated %v times", a)
	}
}
