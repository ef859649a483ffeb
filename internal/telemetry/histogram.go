package telemetry

import "math"

// Histogram is a deterministic log-linear distribution instrument: every
// histogram shares one fixed global bucket layout (histSubBuckets linear
// sub-buckets per power-of-two octave), so two histograms built from the
// same observations are bit-identical regardless of construction order,
// and any two histograms can be merged by adding bucket counts. A histogram
// stores the underflow bucket as a counter and of the positive buckets only
// the span it has seen, counts[i] for bucket lo+i, which grows when a value
// lands outside it: Observe allocates only then, and is lock-free. Like
// Counter, a histogram is written by one goroutine (per-entity instruments
// under the partitioned engine) and read at barriers or after the run; it is
// used through its pointer, as a copy would share counts. All methods are
// safe no-ops on a nil receiver — the disabled fast path — and the zero
// value is ready to use.
type Histogram struct {
	count  uint64
	sum    float64
	min    float64
	max    float64
	under  uint64 // bucket 0
	lo     int
	counts []uint64
}

// The global bucket layout. Bucket 0 holds v <= 0; bucket i >= 1 holds
// positive values with bucket upper bound bucketUpperBound(i), growing
// log-linearly: histSubBuckets equal-width buckets per binary octave over
// exponents [histMinExp, histMaxExp). With 8 sub-buckets the relative
// resolution is ~6%, and the range 2^-16..2^40 (~1.5e-5 .. ~1.1e12) covers
// every unit the reproduction records (microseconds, bytes, bits/s).
const (
	histSubBuckets = 8
	histMinExp     = -16
	histMaxExp     = 40
	histNumBuckets = 1 + (histMaxExp-histMinExp)*histSubBuckets
)

// bucketIndex maps an observation to its bucket. Pure function of the
// value — no per-histogram state — so merged histograms stay exact.
func bucketIndex(v float64) int {
	if v <= 0 || v != v { // non-positive and NaN go to the underflow bucket
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1); +Inf has exp 0
	if exp <= histMinExp {
		return 1
	}
	if exp > histMaxExp || math.IsInf(v, 1) {
		return histNumBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * histSubBuckets)) // in [0, histSubBuckets)
	if sub >= histSubBuckets {                      // guard frac rounding at 1.0
		sub = histSubBuckets - 1
	}
	return 1 + (exp-1-histMinExp)*histSubBuckets + sub
}

// bucketUpperBound returns the inclusive upper bound of bucket i: values v
// with bucketIndex(v) == i satisfy v <= bucketUpperBound(i). Bucket 0 (the
// underflow bucket, v <= 0) has bound 0; the last bucket absorbs overflow
// and reports +Inf.
func bucketUpperBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histNumBuckets-1 {
		return math.Inf(1)
	}
	i--
	exp := histMinExp + i/histSubBuckets + 1
	sub := i % histSubBuckets
	return math.Ldexp(0.5+float64(sub+1)/(2*histSubBuckets), exp)
}

// Observe records one value. A no-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := bucketIndex(v)
	if i == 0 {
		h.under++
		return
	}
	if uint(i-h.lo) >= uint(len(h.counts)) {
		h.cover(i, i+1)
	}
	h.counts[i-h.lo]++
}

// cover grows the span of positive buckets to include buckets [from, to):
// to the union of both, and at least twice as wide as it was, towards the
// side it grows on, within the layout's buckets 1 to histNumBuckets-1.
func (h *Histogram) cover(from, to int) {
	if len(h.counts) == 0 {
		h.lo, h.counts = from, make([]uint64, to-from)
		return
	}
	lo, hi := min(h.lo, from), max(h.lo+len(h.counts), to)
	if grow := 2*len(h.counts) - (hi - lo); grow > 0 {
		if lo < h.lo {
			lo = max(1, lo-grow)
		} else {
			hi = min(histNumBuckets, hi+grow)
		}
	}
	counts := make([]uint64, hi-lo)
	copy(counts[h.lo-lo:], h.counts)
	h.lo, h.counts = lo, counts
}

// Count returns how many values were observed (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observed value (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observed value (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Merge adds o's observations into h. Because every histogram shares the
// global bucket layout, the merge is exact: h ends up identical to a
// histogram that observed both value streams. Safe when either side is nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
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
	h.under += o.under
	if len(o.counts) == 0 {
		return
	}
	if o.lo < h.lo || o.lo+len(o.counts) > h.lo+len(h.counts) || len(h.counts) == 0 {
		h.cover(o.lo, o.lo+len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[o.lo-h.lo+i] += c
	}
}

// each hands fn every bucket's index and count, ascending, the zero ones
// among them.
func (h *Histogram) each(fn func(i int, c uint64) bool) {
	if !fn(0, h.under) {
		return
	}
	for j, c := range h.counts {
		if !fn(h.lo+j, c) {
			return
		}
	}
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the target rank, clamped to the
// observed min/max so small samples don't report bucket edges far outside
// the data. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	v, cum := h.max, 0.0
	h.each(func(i int, c uint64) bool {
		if c == 0 {
			return true
		}
		next := cum + float64(c)
		if next < rank {
			cum = next
			return true
		}
		lo := 0.0
		if i > 0 {
			lo = bucketUpperBound(i - 1)
		}
		hi := bucketUpperBound(i)
		if math.IsInf(hi, 1) {
			hi = h.max
		}
		v = lo + (hi-lo)*(rank-cum)/float64(c)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return false
	})
	return v
}

// Buckets returns the non-zero buckets sparsely, ascending by bound, each
// carrying its inclusive upper bound and (non-cumulative) count. The slice
// is freshly allocated; nil when empty or on a nil receiver.
func (h *Histogram) Buckets() []HistogramBucket {
	if h == nil || h.count == 0 {
		return nil
	}
	var out []HistogramBucket
	h.each(func(i int, c uint64) bool {
		if c != 0 {
			out = append(out, HistogramBucket{UpperBound: bucketUpperBound(i), Count: c})
		}
		return true
	})
	return out
}

// HistogramBucket is one non-zero bucket in a snapshot: Count observations
// with values <= UpperBound (and greater than the previous bucket's bound).
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Histogram returns (creating on first use) the histogram with the given
// dotted name. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}
