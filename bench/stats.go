package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// minMax returns the extremes of xs (NaN, NaN when empty).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p % of the sample at or
// below it. NaN when the slice is empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	// The small slack keeps p99.9 of 1000 at rank 999: 99.9/100*1000 is
	// 999.0000000000001 in floating point.
	rank := int(math.Ceil(p/100*float64(len(asc)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

// highestPercentile returns the highest of tailPercentiles that still has
// at least ten samples beyond it in a sample of n, or 50 when even p90
// does not. A percentile with fewer samples beyond it is set by a handful
// of outliers and does not repeat between runs.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

// relDiff returns (b-a)/|a|, the change from a to b as a share of a; two
// zeros differ by zero.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return (b - a) / math.Abs(a)
}
