package host

import (
	"testing"

	"ufab/internal/sim"
)

// testGap is the recommended flowlet gap the tests run with, at seed 1.
const testGap = 200 * sim.Microsecond

func TestSameFlowletSticksToPath(t *testing.T) {
	s := newClove(3, testGap, 1)
	s.setUtil(0, 0.9)
	s.setUtil(1, 0.1)
	s.setUtil(2, 0.5)
	first := s.pick(0)
	if first != 1 {
		t.Fatalf("first pick = %d, want least-utilized 1", first)
	}
	// Packets inside the gap stay on the same path even if utilization
	// flips.
	s.setUtil(1, 1.0)
	for i := 1; i <= 5; i++ {
		if p := s.pick(sim.Time(i) * 10 * sim.Microsecond); p != first {
			t.Fatalf("mid-flowlet repick to %d", p)
		}
	}
}

func TestNewFlowletRepicks(t *testing.T) {
	s := newClove(2, testGap, 1)
	s.setUtil(0, 0.2)
	s.setUtil(1, 0.8)
	if p := s.pick(0); p != 0 {
		t.Fatalf("pick = %d", p)
	}
	// Idle beyond the gap, with utilization inverted: new flowlet moves.
	s.setUtil(0, 0.9)
	s.setUtil(1, 0.1)
	if p := s.pick(500 * sim.Microsecond); p != 1 {
		t.Fatalf("new flowlet pick = %d, want 1", p)
	}
	if s.repicks == 0 {
		t.Error("repicks not counted")
	}
}

func TestUnknownUtilizationRandom(t *testing.T) {
	s := newClove(4, testGap, 1)
	p := s.pick(0)
	if p < 0 || p >= 4 {
		t.Fatalf("pick out of range: %d", p)
	}
}

func TestOscillationUnderSmallGap(t *testing.T) {
	// With a tiny flowlet gap and utilization feedback that flips after
	// each migration (the Fig 5c pathology), Clove keeps bouncing.
	s := newClove(2, 1*sim.Microsecond, 2)
	s.setUtil(0, 0.5)
	s.setUtil(1, 0.5)
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		now += 10 * sim.Microsecond // always beyond the gap
		p := s.pick(now)
		// The chosen path becomes hot, the other cools down.
		s.setUtil(p, 1.0)
		s.setUtil(1-p, 0.1)
	}
	if s.repicks < 40 {
		t.Fatalf("repicks = %d, expected persistent oscillation", s.repicks)
	}
}
