package wcc

import (
	"testing"
	"testing/quick"

	"ufab/internal/sim"
)

// target is the delay target the tests run with.
const target = 36 * sim.Microsecond

func TestIncreaseBelowTarget(t *testing.T) {
	f := NewFlow(target, 1, 10000)
	before := f.Cwnd
	f.OnAck(0, 24*sim.Microsecond, 1500)
	if f.Cwnd <= before {
		t.Fatalf("cwnd did not grow: %v -> %v", before, f.Cwnd)
	}
}

func TestWeightScalesIncrease(t *testing.T) {
	f1 := NewFlow(target, 1, 10000)
	f5 := NewFlow(target, 5, 10000)
	f1.OnAck(0, 24*sim.Microsecond, 1500)
	f5.OnAck(0, 24*sim.Microsecond, 1500)
	d1 := f1.Cwnd - 10000
	d5 := f5.Cwnd - 10000
	if d5 < 4.9*d1 || d5 > 5.1*d1 {
		t.Fatalf("weighted increase ratio = %v, want ≈5", d5/d1)
	}
}

func TestDecreaseAboveTarget(t *testing.T) {
	f := NewFlow(target, 1, 10000)
	f.OnAck(sim.Millisecond, 72*sim.Microsecond, 1500)
	if f.Cwnd >= 10000 {
		t.Fatalf("cwnd did not shrink: %v", f.Cwnd)
	}
	// Decrease proportional to delay excess, capped at MaxMDF.
	if f.Cwnd < 10000*(1-maxMDF)-1 {
		t.Fatalf("decrease exceeded MaxMDF: %v", f.Cwnd)
	}
}

func TestOneDecreasePerRTT(t *testing.T) {
	f := NewFlow(target, 1, 10000)
	rtt := 72 * sim.Microsecond
	f.OnAck(sim.Millisecond, rtt, 1500)
	after1 := f.Cwnd
	// A second congested ack within the same RTT must not decrease again.
	f.OnAck(sim.Millisecond+10*sim.Microsecond, rtt, 1500)
	if f.Cwnd != after1 {
		t.Fatalf("second decrease within one RTT: %v -> %v", after1, f.Cwnd)
	}
	// After an RTT it may decrease again.
	f.OnAck(sim.Millisecond+rtt, rtt, 1500)
	if f.Cwnd >= after1 {
		t.Fatalf("no decrease after an RTT: %v", f.Cwnd)
	}
}

func TestClamp(t *testing.T) {
	f := NewFlow(target, 1, 100)
	if f.Cwnd != minCwnd {
		t.Fatalf("initial clamp: %v", f.Cwnd)
	}
	f.OnLoss()
	if f.Cwnd != minCwnd {
		t.Fatalf("loss clamp: %v", f.Cwnd)
	}
	g := NewFlow(target, 1, 1e12)
	if g.Cwnd != maxCwnd {
		t.Fatalf("max clamp: %v", g.Cwnd)
	}
}

func TestOnLossHalves(t *testing.T) {
	f := NewFlow(target, 1, 10000)
	f.OnLoss()
	if f.Cwnd != 5000 {
		t.Fatalf("OnLoss cwnd = %v, want 5000", f.Cwnd)
	}
}

// Property: the window always stays within [MinCwnd, MaxCwnd] under any
// ack sequence.
func TestBoundsProperty(t *testing.T) {
	fn := func(rtts []uint16, seed int64) bool {
		f := NewFlow(target, 2, 20000)
		now := sim.Time(0)
		for _, r := range rtts {
			now += 10 * sim.Microsecond
			rtt := sim.Duration(r%200+1) * sim.Microsecond
			f.OnAck(now, rtt, 1500)
			if f.Cwnd < minCwnd || f.Cwnd > maxCwnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
