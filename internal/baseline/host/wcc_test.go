package host

import (
	"testing"
	"testing/quick"

	"ufab/internal/sim"
)

// target is the delay target the tests run with.
const target = 36 * sim.Microsecond

func TestIncreaseBelowTarget(t *testing.T) {
	f := newWCCFlow(target, 1, 10000)
	before := f.cwnd
	f.onAck(0, 24*sim.Microsecond, 1500)
	if f.cwnd <= before {
		t.Fatalf("cwnd did not grow: %v -> %v", before, f.cwnd)
	}
}

func TestWeightScalesIncrease(t *testing.T) {
	f1 := newWCCFlow(target, 1, 10000)
	f5 := newWCCFlow(target, 5, 10000)
	f1.onAck(0, 24*sim.Microsecond, 1500)
	f5.onAck(0, 24*sim.Microsecond, 1500)
	d1 := f1.cwnd - 10000
	d5 := f5.cwnd - 10000
	if d5 < 4.9*d1 || d5 > 5.1*d1 {
		t.Fatalf("weighted increase ratio = %v, want ≈5", d5/d1)
	}
}

func TestDecreaseAboveTarget(t *testing.T) {
	f := newWCCFlow(target, 1, 10000)
	f.onAck(sim.Millisecond, 72*sim.Microsecond, 1500)
	if f.cwnd >= 10000 {
		t.Fatalf("cwnd did not shrink: %v", f.cwnd)
	}
	// Decrease proportional to delay excess, capped at maxMDF.
	if f.cwnd < 10000*(1-maxMDF)-1 {
		t.Fatalf("decrease exceeded maxMDF: %v", f.cwnd)
	}
}

func TestWCCOneDecreasePerRTT(t *testing.T) {
	f := newWCCFlow(target, 1, 10000)
	rtt := 72 * sim.Microsecond
	f.onAck(sim.Millisecond, rtt, 1500)
	after1 := f.cwnd
	// A second congested ack within the same RTT must not decrease again.
	f.onAck(sim.Millisecond+10*sim.Microsecond, rtt, 1500)
	if f.cwnd != after1 {
		t.Fatalf("second decrease within one RTT: %v -> %v", after1, f.cwnd)
	}
	// After an RTT it may decrease again.
	f.onAck(sim.Millisecond+rtt, rtt, 1500)
	if f.cwnd >= after1 {
		t.Fatalf("no decrease after an RTT: %v", f.cwnd)
	}
}

func TestClamp(t *testing.T) {
	f := newWCCFlow(target, 1, 100)
	if f.cwnd != minCwnd {
		t.Fatalf("initial clamp: %v", f.cwnd)
	}
	f.onLoss()
	if f.cwnd != minCwnd {
		t.Fatalf("loss clamp: %v", f.cwnd)
	}
	g := newWCCFlow(target, 1, 1e12)
	if g.cwnd != maxCwnd {
		t.Fatalf("max clamp: %v", g.cwnd)
	}
}

func TestOnLossHalves(t *testing.T) {
	f := newWCCFlow(target, 1, 10000)
	f.onLoss()
	if f.cwnd != 5000 {
		t.Fatalf("OnLoss cwnd = %v, want 5000", f.cwnd)
	}
}

// Property: the window always stays within [minCwnd, maxCwnd] under any
// ack sequence.
func TestBoundsProperty(t *testing.T) {
	fn := func(rtts []uint16, seed int64) bool {
		f := newWCCFlow(target, 2, 20000)
		now := sim.Time(0)
		for _, r := range rtts {
			now += 10 * sim.Microsecond
			rtt := sim.Duration(r%200+1) * sim.Microsecond
			f.onAck(now, rtt, 1500)
			if f.cwnd < minCwnd || f.cwnd > maxCwnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
