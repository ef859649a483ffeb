package elasticswitch

import (
	"testing"
	"testing/quick"

	"ufab/internal/sim"
)

func TestStartsAtGuarantee(t *testing.T) {
	ra := New(10e9, 2e9)
	if ra.Rate != 2e9 {
		t.Fatalf("initial rate = %v", ra.Rate)
	}
}

func TestNeverBelowGuarantee(t *testing.T) {
	ra := New(10e9, 2e9)
	rtt := 24 * sim.Microsecond
	now := sim.Time(0)
	// Persistent congestion: the rate converges to the guarantee but
	// never below it — ElasticSwitch's defining (queue-building)
	// behavior.
	for i := 0; i < 100; i++ {
		now += sim.Time(rtt)
		ra.OnAck(now, rtt, 1500, true)
		if ra.Rate < 2e9 {
			t.Fatalf("rate %v fell below guarantee", ra.Rate)
		}
	}
	if ra.Rate > 2.01e9 {
		t.Fatalf("rate = %v, want converged to guarantee", ra.Rate)
	}
}

func TestProbesUpWhenUncongested(t *testing.T) {
	ra := New(10e9, 1e9)
	rtt := 24 * sim.Microsecond
	now := sim.Time(0)
	for i := 0; i < 2000; i++ {
		now += sim.Time(rtt)
		ra.OnAck(now, rtt, 1500, false)
	}
	if ra.Rate < 5e9 {
		t.Fatalf("rate = %v, want substantial growth", ra.Rate)
	}
	if ra.Rate > 10e9 {
		t.Fatalf("rate = %v exceeds cap", ra.Rate)
	}
}

func TestOneDecreasePerRTT(t *testing.T) {
	ra := New(10e9, 1e9)
	ra.Rate = 8e9
	rtt := 24 * sim.Microsecond
	ra.OnAck(sim.Millisecond, rtt, 1500, true)
	after := ra.Rate
	ra.OnAck(sim.Millisecond+sim.Microsecond, rtt, 1500, true)
	if ra.Rate != after {
		t.Fatalf("second decrease within an RTT: %v -> %v", after, ra.Rate)
	}
}

func TestSetGuaranteeRaisesFloor(t *testing.T) {
	ra := New(10e9, 1e9)
	ra.SetGuarantee(4e9)
	if ra.Rate != 4e9 {
		t.Fatalf("rate after floor raise = %v", ra.Rate)
	}
}

func TestOnLoss(t *testing.T) {
	ra := New(10e9, 2e9)
	ra.Rate = 10e9
	ra.OnLoss(0)
	if ra.Rate != 2e9+8e9*0.5 {
		t.Fatalf("rate after loss = %v", ra.Rate)
	}
}

// Property: the rate always stays in [guarantee, max] for any feedback
// sequence.
func TestRateBoundsProperty(t *testing.T) {
	f := func(events []bool) bool {
		ra := New(10e9, 1.5e9)
		now := sim.Time(0)
		rtt := 30 * sim.Microsecond
		for _, congested := range events {
			now += sim.Time(rtt)
			ra.OnAck(now, rtt, 1500, congested)
			if ra.Rate < 1.5e9 || ra.Rate > 10e9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
