package host

import (
	"testing"
	"testing/quick"

	"ufab/internal/sim"
)

func TestStartsAtGuarantee(t *testing.T) {
	ra := newESRA(10e9, 2e9)
	if ra.rate != 2e9 {
		t.Fatalf("initial rate = %v", ra.rate)
	}
}

func TestNeverBelowGuarantee(t *testing.T) {
	ra := newESRA(10e9, 2e9)
	rtt := 24 * sim.Microsecond
	now := sim.Time(0)
	// Persistent congestion: the rate converges to the guarantee but
	// never below it — ElasticSwitch's defining (queue-building)
	// behavior.
	for i := 0; i < 100; i++ {
		now += sim.Time(rtt)
		ra.onAck(now, rtt, 1500, true)
		if ra.rate < 2e9 {
			t.Fatalf("rate %v fell below guarantee", ra.rate)
		}
	}
	if ra.rate > 2.01e9 {
		t.Fatalf("rate = %v, want converged to guarantee", ra.rate)
	}
}

func TestProbesUpWhenUncongested(t *testing.T) {
	ra := newESRA(10e9, 1e9)
	rtt := 24 * sim.Microsecond
	now := sim.Time(0)
	for i := 0; i < 2000; i++ {
		now += sim.Time(rtt)
		ra.onAck(now, rtt, 1500, false)
	}
	if ra.rate < 5e9 {
		t.Fatalf("rate = %v, want substantial growth", ra.rate)
	}
	if ra.rate > 10e9 {
		t.Fatalf("rate = %v exceeds cap", ra.rate)
	}
}

func TestESOneDecreasePerRTT(t *testing.T) {
	ra := newESRA(10e9, 1e9)
	ra.rate = 8e9
	rtt := 24 * sim.Microsecond
	ra.onAck(sim.Millisecond, rtt, 1500, true)
	after := ra.rate
	ra.onAck(sim.Millisecond+sim.Microsecond, rtt, 1500, true)
	if ra.rate != after {
		t.Fatalf("second decrease within an RTT: %v -> %v", after, ra.rate)
	}
}

func TestOnLoss(t *testing.T) {
	ra := newESRA(10e9, 2e9)
	ra.rate = 10e9
	ra.onLoss(0)
	if ra.rate != 2e9+8e9*0.5 {
		t.Fatalf("rate after loss = %v", ra.rate)
	}
}

// Property: the rate always stays in [guarantee, max] for any feedback
// sequence.
func TestRateBoundsProperty(t *testing.T) {
	f := func(events []bool) bool {
		ra := newESRA(10e9, 1.5e9)
		now := sim.Time(0)
		rtt := 30 * sim.Microsecond
		for _, congested := range events {
			now += sim.Time(rtt)
			ra.onAck(now, rtt, 1500, congested)
			if ra.rate < 1.5e9 || ra.rate > 10e9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
