package host

import (
	"math"
	"math/rand"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/stats"
)

const win = 100 * sim.Microsecond

// bytesFor returns the window byte count corresponding to a rate.
func bytesFor(bps float64) int64 { return int64(bps * win.Seconds() / 8) }

func TestNoAdmissionUnderCapacity(t *testing.T) {
	grants := picnicAllocate(nil, 10e9, win, []picnicDemand{
		{weight: 1, bytes: bytesFor(2e9)},
		{weight: 1, bytes: bytesFor(3e9)},
	})
	if grants != nil {
		t.Fatalf("grants = %v, want nil under capacity", grants)
	}
}

func TestWeightedGrantsWhenOversubscribed(t *testing.T) {
	grants := picnicAllocate(nil, 9.5e9, win, []picnicDemand{
		{weight: 1, bytes: bytesFor(8e9)},
		{weight: 4, bytes: bytesFor(8e9)},
	})
	if grants == nil {
		t.Fatal("no grants despite oversubscription")
	}
	if math.Abs(grants[0]-9.5e9/5) > 1e6 {
		t.Errorf("grant[0] = %v, want 1.9G", grants[0])
	}
	if math.Abs(grants[1]-4*9.5e9/5) > 1e6 {
		t.Errorf("grant[1] = %v, want 7.6G", grants[1])
	}
}

func TestEmptyDemands(t *testing.T) {
	if picnicAllocate(nil, 10e9, win, nil) != nil {
		t.Fatal("empty demands must return nil")
	}
}

func TestGrantsSumToCapacity(t *testing.T) {
	demands := []picnicDemand{
		{weight: 1, bytes: bytesFor(5e9)},
		{weight: 2, bytes: bytesFor(5e9)},
		{weight: 3, bytes: bytesFor(5e9)},
	}
	grants := picnicAllocate(nil, 9e9, win, demands)
	sum := 0.0
	for _, g := range grants {
		sum += g
	}
	if math.Abs(sum-9e9) > 1e6 {
		t.Fatalf("grants sum = %v, want 9e9", sum)
	}
}

// TestAllocateIsWaterfill: the one-step share picnicAllocate computes is the
// weighted max-min water-fill of the capacity over one link with every
// demand unbounded, bit for bit — random weights (some zero), pair counts
// and capacities, the pairs' order as given — and with a buffer it has
// filled before, picnicAllocate allocates nothing.
func TestAllocateIsWaterfill(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var dst []float64
	for trial := 0; trial < 2000; trial++ {
		demands := make([]picnicDemand, 1+rng.Intn(40))
		weights, unbounded, flows := make([]float64, len(demands)), make([]float64, len(demands)), make([]int, len(demands))
		for i := range demands {
			demands[i] = picnicDemand{weight: rng.Float64() * 10, bytes: bytesFor(rng.Float64() * 10e9)}
			if rng.Intn(8) == 0 {
				demands[i].weight = 0
			}
			weights[i], unbounded[i], flows[i] = demands[i].weight, -1, i
		}
		capacity := 1e9 + rng.Float64()*99e9
		dst = picnicAllocate(dst, capacity, win, demands)
		if dst == nil {
			continue
		}
		want := stats.Waterfill(weights, unbounded, []stats.WaterfillLink{{Capacity: capacity, Flows: flows}})
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: grant %d = %v, the water-fill gives %v", trial, i, dst[i], want[i])
			}
		}
		if a := testing.AllocsPerRun(10, func() { dst = picnicAllocate(dst, capacity, win, demands) }); a != 0 {
			t.Fatalf("trial %d: picnicAllocate into its last grants allocated %v times", trial, a)
		}
	}
}
