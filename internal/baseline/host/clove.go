package host

import (
	"math/rand"

	"ufab/internal/sim"
	"ufab/internal/stats"
)

// clove is one flow's utilization-oriented flowlet load balancing, after
// Clove [Katta et al., CoNEXT'17] as the paper's baselines use it (§2.2):
// traffic is split at flowlet granularity — a new flowlet starts after an
// idle gap — and each new flowlet is steered to the candidate path with the
// lowest explicit utilization.
//
// Clove is deliberately guarantee-agnostic: it sees link *utilization*,
// not bandwidth *subscription*, which is exactly the failure mode Case-2
// (Fig 5) demonstrates.
type clove struct {
	// gap is the idle gap that opens a new flowlet. The paper evaluates
	// the recommended 200 μs and an aggressive 36 μs (1.5 × baseRTT).
	gap      sim.Duration
	utils    []float64
	haveUtil []bool
	current  int
	lastSend sim.Time
	started  bool
	// rng drives random tie-breaking among equally utilized paths.
	rng *rand.Rand
	// repicks counts flowlet-boundary path decisions (oscillation
	// diagnostics for Fig 5c).
	repicks int
}

// newClove returns a flowlet state over nPaths ≥ 1 candidate paths (AddFlow
// refuses a flow without routes).
func newClove(nPaths int, gap sim.Duration, seed int64) *clove {
	s := &clove{
		gap:      gap,
		utils:    make([]float64, nPaths),
		haveUtil: make([]bool, nPaths),
		rng:      stats.NewRand(seed),
	}
	s.current = s.rng.Intn(nPaths)
	return s
}

// setUtil records a path's observed utilization (0..1+), e.g. from an
// INT/ECN feedback loop.
func (s *clove) setUtil(path int, util float64) {
	s.utils[path] = util
	s.haveUtil[path] = true
}

// pick returns the path for a packet sent at now. A packet following an
// idle gap longer than gap starts a new flowlet, which is steered to the
// least-utilized path (random among ties within 1%).
func (s *clove) pick(now sim.Time) int {
	if s.started && now-s.lastSend <= s.gap {
		s.lastSend = now
		return s.current
	}
	s.lastSend = now
	s.started = true
	best := -1
	for i := range s.utils {
		if !s.haveUtil[i] {
			continue
		}
		switch {
		case best == -1 || s.utils[i] < s.utils[best]-0.01:
			best = i
		case s.utils[i] <= s.utils[best]+0.01 && s.rng.Intn(2) == 0:
			best = i
		}
	}
	if best == -1 {
		best = s.rng.Intn(len(s.utils))
	}
	if best != s.current {
		s.repicks++
	}
	s.current = best
	return s.current
}
