package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ufab/internal/sim"
)

func TestSamplesQuantiles(t *testing.T) {
	var s Samples
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.P(0); got != 1 {
		t.Errorf("P(0) = %v", got)
	}
	if got := s.P(1); got != 100 {
		t.Errorf("P(1) = %v", got)
	}
	if got := s.P(0.5); math.Abs(got-50.5) > 0.01 {
		t.Errorf("P(0.5) = %v", got)
	}
	if got := s.P(0.99); math.Abs(got-99.01) > 0.01 {
		t.Errorf("P(0.99) = %v", got)
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("Max = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v", got)
	}
}

func TestSamplesEmpty(t *testing.T) {
	var s Samples
	for _, v := range []float64{s.P(0.5), s.Mean(), s.Max(), s.Min(), s.stdDev()} {
		if !math.IsNaN(v) {
			t.Errorf("empty stat = %v, want NaN", v)
		}
	}
	if s.CDF(10) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestStdDev(t *testing.T) {
	var s Samples
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.stdDev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestCDF(t *testing.T) {
	var s Samples
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF points = %d", len(pts))
	}
	if pts[9].F != 1 || pts[9].X != 1000 {
		t.Errorf("last point = %+v", pts[9])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].F <= pts[i-1].F || pts[i].X < pts[i-1].X {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	var s Samples
	s.Add(1)
	if s.Summary("us") == "" {
		t.Error("empty Summary")
	}
}

func TestSeriesAtAndBackwardsPanic(t *testing.T) {
	var s Series
	s.Add(10*sim.Microsecond, 1)
	s.Add(20*sim.Microsecond, 2)
	if got := s.At(5 * sim.Microsecond); got != 0 {
		t.Errorf("At(5us) = %v", got)
	}
	if got := s.At(15 * sim.Microsecond); got != 1 {
		t.Errorf("At(15us) = %v", got)
	}
	if got := s.At(20 * sim.Microsecond); got != 2 {
		t.Errorf("At(20us) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Add did not panic")
		}
	}()
	s.Add(5*sim.Microsecond, 3)
}

func TestSeriesMeanOver(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(10*sim.Microsecond, 20)
	// Over [0,20us]: 10 for first half, 20 for second = 15.
	if got := s.MeanOver(0, 20*sim.Microsecond); math.Abs(got-15) > 1e-9 {
		t.Errorf("MeanOver = %v, want 15", got)
	}
	var empty Series
	if !math.IsNaN(empty.MeanOver(0, 1)) {
		t.Error("empty MeanOver not NaN")
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter("r", 10*sim.Microsecond)
	// 12500 bytes in each of two windows = 10 Gbps.
	m.Add(1*sim.Microsecond, 12500)
	m.Add(11*sim.Microsecond, 12500)
	m.Flush(20 * sim.Microsecond)
	if len(m.Series.Pts) != 2 {
		t.Fatalf("points = %d", len(m.Series.Pts))
	}
	for _, p := range m.Series.Pts {
		if math.Abs(p.V-10e9) > 1 {
			t.Errorf("rate = %v, want 10e9", p.V)
		}
	}
	if m.totalBytes() != 25000 {
		t.Errorf("TotalBytes = %d", m.totalBytes())
	}
}

// AddTotal must produce the series the samplers' hand-written step did:
// Add the counter's growth when it grew, close windows up to t either way.
func TestRateMeterAddTotal(t *testing.T) {
	got := NewRateMeter("total", 10*sim.Microsecond)
	want := NewRateMeter("step", 10*sim.Microsecond)
	var last int64
	for i, total := range []int64{0, 12500, 12500, 40000, 40000, 40000, 52500} {
		now := sim.Time(i) * 7 * sim.Microsecond
		got.AddTotal(now, total)
		if delta := total - last; delta > 0 {
			want.Add(now, int(delta))
			last = total
		}
		want.Flush(now)
	}
	if got.totalBytes() != 52500 || len(got.Series.Pts) != len(want.Series.Pts) {
		t.Fatalf("total %d, %d points; want 52500, %d", got.totalBytes(), len(got.Series.Pts), len(want.Series.Pts))
	}
	for i, p := range got.Series.Pts {
		if p != want.Series.Pts[i] {
			t.Errorf("point %d = %+v, want %+v", i, p, want.Series.Pts[i])
		}
	}
}

func TestRateMeterIdleWindows(t *testing.T) {
	m := NewRateMeter("r", sim.Microsecond)
	m.Add(500*sim.Nanosecond, 125)
	m.Add(10500*sim.Nanosecond, 125) // 9 idle windows between
	m.Flush(11 * sim.Microsecond)
	zero := 0
	for _, p := range m.Series.Pts {
		if p.V == 0 {
			zero++
		}
	}
	if zero != 9 {
		t.Fatalf("zero windows = %d, want 9", zero)
	}
}

func TestConvergenceTime(t *testing.T) {
	var s Series
	// Ramp to 10 by t=50us, hold after.
	for i := 0; i <= 100; i++ {
		v := float64(i) / 5
		if v > 10 {
			v = 10
		}
		s.Add(sim.Time(i)*sim.Microsecond, v)
	}
	ct := ConvergenceTime(&s, 0, 10, 0.05, 20*sim.Microsecond)
	// Within 5% of 10 means ≥ 9.5, reached at i=48 (v=9.6).
	if ct != 48*sim.Microsecond {
		t.Fatalf("ConvergenceTime = %v, want 48us", ct)
	}
	// Never converges to 100.
	if ct := ConvergenceTime(&s, 0, 100, 0.05, sim.Microsecond); ct != -1 {
		t.Fatalf("impossible target converged at %v", ct)
	}
	if ct := ConvergenceTime(&s, 0, 0, 0.05, sim.Microsecond); ct != -1 {
		t.Fatal("zero target must return -1")
	}
}

func TestConvergenceResetsOnExit(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(10*sim.Microsecond, 0) // leaves band
	s.Add(20*sim.Microsecond, 10)
	s.Add(40*sim.Microsecond, 10)
	ct := ConvergenceTime(&s, 0, 10, 0.05, 15*sim.Microsecond)
	if ct != 20*sim.Microsecond {
		t.Fatalf("ConvergenceTime = %v, want 20us", ct)
	}
}

func TestWaterfillSingleLink(t *testing.T) {
	// 3 flows, weights 1:2:5 on a 10G link, unbounded demand →
	// 1.25 / 2.5 / 6.25 G.
	rates := Waterfill(
		[]float64{1, 2, 5},
		[]float64{-1, -1, -1},
		[]WaterfillLink{{Capacity: 10e9, Flows: []int{0, 1, 2}}},
	)
	want := []float64{1.25e9, 2.5e9, 6.25e9}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e3 {
			t.Errorf("rate[%d] = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestWaterfillDemandBound(t *testing.T) {
	// Flow 0 demands only 1G; its leftover goes to the others.
	rates := Waterfill(
		[]float64{1, 1, 1},
		[]float64{1e9, -1, -1},
		[]WaterfillLink{{Capacity: 10e9, Flows: []int{0, 1, 2}}},
	)
	if math.Abs(rates[0]-1e9) > 1e3 {
		t.Errorf("rate[0] = %v", rates[0])
	}
	if math.Abs(rates[1]-4.5e9) > 1e3 || math.Abs(rates[2]-4.5e9) > 1e3 {
		t.Errorf("rates = %v, want 4.5G each", rates)
	}
}

func TestWaterfillMultiLink(t *testing.T) {
	// Flow 0 crosses links A and B; flow 1 only A; flow 2 only B.
	// A: 10G, B: 4G. Flow 0 is max-min bottlenecked at B: 2G; flow 2
	// gets 2G; flow 1 gets the rest of A: 8G.
	rates := Waterfill(
		[]float64{1, 1, 1},
		[]float64{-1, -1, -1},
		[]WaterfillLink{
			{Capacity: 10e9, Flows: []int{0, 1}},
			{Capacity: 4e9, Flows: []int{0, 2}},
		},
	)
	want := []float64{2e9, 8e9, 2e9}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e3 {
			t.Errorf("rates = %v, want %v", rates, want)
		}
	}
}

func TestWaterfillZeroWeight(t *testing.T) {
	rates := Waterfill(
		[]float64{0, 1},
		[]float64{-1, -1},
		[]WaterfillLink{{Capacity: 10e9, Flows: []int{0, 1}}},
	)
	if rates[0] != 0 || math.Abs(rates[1]-10e9) > 1e3 {
		t.Errorf("rates = %v", rates)
	}
}

// Property: water-filling never exceeds any link capacity and never
// exceeds demand.
func TestWaterfillFeasibleProperty(t *testing.T) {
	f := func(wRaw, dRaw []uint8, capRaw uint16) bool {
		n := len(wRaw)
		if n == 0 || n > 12 {
			return true
		}
		weights := make([]float64, n)
		demands := make([]float64, n)
		flows := make([]int, n)
		for i := range wRaw {
			weights[i] = float64(wRaw[i]%10) + 1
			demands[i] = -1
			if i < len(dRaw) && dRaw[i]%2 == 0 {
				demands[i] = float64(dRaw[i]) * 1e8
			}
			flows[i] = i
		}
		cap := float64(capRaw%1000+1) * 1e8
		rates := Waterfill(weights, demands, []WaterfillLink{{Capacity: cap, Flows: flows}})
		sum := 0.0
		for i, r := range rates {
			if r < -1e-6 {
				return false
			}
			if demands[i] >= 0 && r > demands[i]+1e-3 {
				return false
			}
			sum += r
		}
		return sum <= cap*(1+1e-9)+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDissatisfaction(t *testing.T) {
	// VF0 guaranteed 2G achieved 1G (violation 1G); VF1 guaranteed 1G
	// achieved 2G (no violation). Owed = 3G → ratio 1/3.
	got := Dissatisfaction([]float64{1e9, 2e9}, []float64{2e9, 1e9}, nil)
	if math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("Dissatisfaction = %v", got)
	}
	// Demand below guarantee caps what is owed.
	got = Dissatisfaction([]float64{0.5e9}, []float64{2e9}, []float64{0.5e9})
	if got != 0 {
		t.Errorf("demand-capped dissatisfaction = %v, want 0", got)
	}
	if Dissatisfaction(nil, nil, nil) != 0 {
		t.Error("empty dissatisfaction != 0")
	}
}

func TestSlowdown(t *testing.T) {
	// 1 MB at 1 Gbps expected 8 ms; actual 16 ms → slowdown 2.
	got := Slowdown(16*sim.Millisecond, 1_000_000, 1e9)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("Slowdown = %v, want 2", got)
	}
	if !math.IsNaN(Slowdown(1, 0, 1e9)) {
		t.Error("zero-size slowdown not NaN")
	}
}
