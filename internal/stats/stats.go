// Package stats provides the measurement machinery the evaluation needs:
// sample collections with percentiles and CDFs, time series, windowed rate
// meters, convergence-time detection, and a weighted max-min water-filling
// solver that computes the ideal bandwidth allocation used for
// dissatisfaction metrics and the "Ideal" bars of Fig 13 — and NewRand, the
// constructor of every seeded random stream the simulation draws from.
package stats

import (
	"fmt"
	"math"
	"sort"

	"ufab/internal/sim"
)

// Samples is an unordered collection of float64 observations.
type Samples struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Samples) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends every observation of other (which is left untouched).
func (s *Samples) AddAll(other *Samples) {
	if other.Len() == 0 {
		return
	}
	s.xs = append(s.xs, other.xs...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Samples) Len() int { return len(s.xs) }

func (s *Samples) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// P returns the q-quantile (q in [0,1]) using nearest-rank interpolation.
// It returns NaN for an empty collection.
func (s *Samples) P(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.xs) {
		return s.xs[i]
	}
	return s.xs[i]*(1-frac) + s.xs[i+1]*frac
}

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Samples) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the population standard deviation, or NaN when empty.
func (s *Samples) StdDev() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s.xs)))
}

// Max returns the largest observation, or NaN when empty.
func (s *Samples) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Min returns the smallest observation, or NaN when empty.
func (s *Samples) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// TakeAll returns the collected observations (order unspecified) and
// resets the collection — used for epoch-by-epoch measurement windows.
func (s *Samples) TakeAll() []float64 {
	out := s.xs
	s.xs = nil
	s.sorted = false
	return out
}

// Snapshot is a sorted, read-only view of a Samples collection at one
// point in time: a single sort serves every quantile, where alternating
// Add and P in a sampling loop would re-sort on each P call. The view
// aliases the collection's buffer — take it after collection is done, and
// do not Add to the source while using it.
type Snapshot struct {
	xs []float64
}

// Snapshot sorts the collection once (reusing any cached order) and
// returns the quantile-serving view.
func (s *Samples) Snapshot() Snapshot {
	s.sort()
	return Snapshot{xs: s.xs}
}

// P returns the q-quantile with the same interpolation as Samples.P, and
// NaN when empty.
func (v Snapshot) P(q float64) float64 {
	if len(v.xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return v.xs[0]
	}
	if q >= 1 {
		return v.xs[len(v.xs)-1]
	}
	pos := q * float64(len(v.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(v.xs) {
		return v.xs[i]
	}
	return v.xs[i]*(1-frac) + v.xs[i+1]*frac
}

// Max returns the largest observation, or NaN when empty.
func (v Snapshot) Max() float64 {
	if len(v.xs) == 0 {
		return math.NaN()
	}
	return v.xs[len(v.xs)-1]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // fraction of samples ≤ X
}

// CDF returns up to maxPoints evenly spaced points of the empirical CDF.
func (s *Samples) CDF(maxPoints int) []CDFPoint {
	if len(s.xs) == 0 {
		return nil
	}
	s.sort()
	n := len(s.xs)
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1) * n / maxPoints
		if idx > n {
			idx = n
		}
		pts = append(pts, CDFPoint{X: s.xs[idx-1], F: float64(idx) / float64(n)})
	}
	return pts
}

// Summary formats mean/p50/p99/p999/max on one line, for experiment output.
func (s *Samples) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.2f%s p50=%.2f%s p99=%.2f%s p99.9=%.2f%s max=%.2f%s",
		s.Len(), s.Mean(), unit, s.P(0.50), unit, s.P(0.99), unit, s.P(0.999), unit, s.Max(), unit)
}

// Point is a timestamped value.
type Point struct {
	T sim.Time
	V float64
}

// Series is a time series of float64 values.
type Series struct {
	Name string
	Pts  []Point
}

// Add appends a point; times must be non-decreasing.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.Pts); n > 0 && t < s.Pts[n-1].T {
		panic(fmt.Sprintf("stats: series %q time goes backwards (%v < %v)", s.Name, t, s.Pts[n-1].T))
	}
	s.Pts = append(s.Pts, Point{T: t, V: v})
}

// At returns the last value recorded at or before t, or 0 if none.
func (s *Series) At(t sim.Time) float64 {
	i := sort.Search(len(s.Pts), func(i int) bool { return s.Pts[i].T > t })
	if i == 0 {
		return 0
	}
	return s.Pts[i-1].V
}

// MeanOver returns the time-weighted mean of the series over [from, to],
// treating values as right-continuous steps. It returns NaN when the
// series is empty or the interval is empty.
func (s *Series) MeanOver(from, to sim.Time) float64 {
	if len(s.Pts) == 0 || to <= from {
		return math.NaN()
	}
	var sum float64
	cur := s.At(from)
	last := from
	for _, p := range s.Pts {
		if p.T <= from {
			continue
		}
		if p.T > to {
			break
		}
		sum += cur * float64(p.T-last)
		cur = p.V
		last = p.T
	}
	sum += cur * float64(to-last)
	return sum / float64(to-from)
}

// RateMeter turns byte arrivals into a bits/s time series sampled at a
// fixed interval.
type RateMeter struct {
	Interval sim.Duration
	Series   Series

	winStart sim.Time
	winBytes int64
	total    int64
}

// NewRateMeter returns a meter that emits one sample per interval.
func NewRateMeter(name string, interval sim.Duration) *RateMeter {
	if interval <= 0 {
		panic("stats: non-positive rate meter interval")
	}
	return &RateMeter{Interval: interval, Series: Series{Name: name}}
}

// Add records bytes arriving at time t, closing any completed windows.
func (m *RateMeter) Add(t sim.Time, bytes int) {
	m.flushTo(t)
	m.winBytes += int64(bytes)
	m.total += int64(bytes)
}

// AddTotal records the reading, at time t, of a cumulative byte counter
// that only this method feeds into the meter: the bytes counted since the
// previous reading arrive at t, and windows close up to t either way.
func (m *RateMeter) AddTotal(t sim.Time, total int64) { m.Add(t, int(total-m.total)) }

// Flush closes windows up to time t so the series covers [0, t).
func (m *RateMeter) Flush(t sim.Time) { m.flushTo(t) }

func (m *RateMeter) flushTo(t sim.Time) {
	for t-m.winStart >= m.Interval {
		rate := float64(m.winBytes*8) / m.Interval.Seconds()
		m.Series.Add(m.winStart+m.Interval, rate)
		m.winBytes = 0
		m.winStart += m.Interval
	}
}

// TotalBytes returns all bytes recorded so far.
func (m *RateMeter) TotalBytes() int64 { return m.total }

// ConvergenceTime returns how long after event time t0 the series stays
// within tol (relative) of target for at least hold, or -1 if it never
// does. It is the metric behind Fig 18's convergence bars.
func ConvergenceTime(s *Series, t0 sim.Time, target, tol float64, hold sim.Duration) sim.Duration {
	if target == 0 {
		return -1
	}
	var okSince sim.Time = -1
	for _, p := range s.Pts {
		if p.T < t0 {
			continue
		}
		within := math.Abs(p.V-target) <= tol*target
		if within {
			if okSince < 0 {
				okSince = p.T
			}
			if p.T-okSince >= hold {
				return okSince - t0
			}
		} else {
			okSince = -1
		}
	}
	return -1
}

// WaterfillLink describes one capacitated resource for Waterfill: its
// capacity in bits/s and the indices of the flows crossing it.
type WaterfillLink struct {
	Capacity float64
	Flows    []int
}

// Waterfill computes the weighted max-min fair allocation of n flows with
// the given weights and demands (demand < 0 means unbounded) over the
// links. It returns the per-flow rates. This is the α→∞ allocation of
// Appendix C used as the "ideal" reference.
func Waterfill(weights, demands []float64, links []WaterfillLink) []float64 {
	n := len(weights)
	rates := make([]float64, n)
	frozen := make([]bool, n)
	remCap := make([]float64, len(links))
	for i, l := range links {
		remCap[i] = l.Capacity
	}
	for iter := 0; iter < n+1; iter++ {
		// Find the smallest increment δ such that some unfrozen flow
		// hits its demand or some link saturates when every unfrozen
		// flow f grows by δ·weight[f].
		delta := math.Inf(1)
		for li, l := range links {
			w := 0.0
			for _, f := range l.Flows {
				if !frozen[f] {
					w += weights[f]
				}
			}
			if w > 0 {
				if d := remCap[li] / w; d < delta {
					delta = d
				}
			}
		}
		for f := 0; f < n; f++ {
			if frozen[f] || demands[f] < 0 || weights[f] == 0 {
				continue
			}
			if d := (demands[f] - rates[f]) / weights[f]; d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) || delta < 0 {
			break
		}
		// Apply the increment.
		for f := 0; f < n; f++ {
			if !frozen[f] {
				rates[f] += delta * weights[f]
			}
		}
		for li, l := range links {
			w := 0.0
			for _, f := range l.Flows {
				if !frozen[f] {
					w += weights[f]
				}
			}
			remCap[li] -= delta * w
		}
		// Freeze flows at demand or on saturated links.
		progress := false
		for f := 0; f < n; f++ {
			if frozen[f] {
				continue
			}
			if demands[f] >= 0 && rates[f] >= demands[f]-1e-9 {
				frozen[f] = true
				progress = true
			}
		}
		for li, l := range links {
			if remCap[li] <= 1e-6*links[li].Capacity {
				for _, f := range l.Flows {
					if !frozen[f] {
						frozen[f] = true
						progress = true
					}
				}
			}
		}
		if !progress {
			break
		}
		done := true
		for f := 0; f < n; f++ {
			if !frozen[f] && weights[f] > 0 {
				done = false
			}
		}
		if done {
			break
		}
	}
	return rates
}

// Dissatisfaction returns the bandwidth-dissatisfaction ratio of Fig 11d:
// the total minimum-bandwidth violation over the total guaranteed volume,
// given per-VF achieved rates, guarantees, and demands (a VF with demand
// below its guarantee is only owed its demand).
func Dissatisfaction(achieved, guarantee, demand []float64) float64 {
	var violation, owed float64
	for i := range achieved {
		g := guarantee[i]
		if demand != nil && demand[i] >= 0 && demand[i] < g {
			g = demand[i]
		}
		owed += g
		if d := g - achieved[i]; d > 0 {
			violation += d
		}
	}
	if owed == 0 {
		return 0
	}
	return violation / owed
}

// Slowdown returns actual FCT normalized by the expected FCT under the
// hose-model guarantee: size·8/guaranteeBps (§5.5 footnote).
func Slowdown(fct sim.Duration, sizeBytes int, guaranteeBps float64) float64 {
	expected := float64(sizeBytes*8) / guaranteeBps
	if expected <= 0 {
		return math.NaN()
	}
	return fct.Seconds() / expected
}
