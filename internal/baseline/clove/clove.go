// Package clove implements the utilization-oriented flowlet load
// balancing of Clove [Katta et al., CoNEXT'17] as the paper's baselines
// use it (§2.2): traffic is split at flowlet granularity — a new flowlet
// starts after an idle gap — and each new flowlet is steered to the
// candidate path with the lowest explicit utilization.
//
// Clove is deliberately guarantee-agnostic: it sees link *utilization*,
// not bandwidth *subscription*, which is exactly the failure mode Case-2
// (Fig 5) demonstrates.
package clove

import (
	"math/rand"

	"ufab/internal/sim"
	"ufab/internal/stats"
)

// Config parameterizes a flowlet state.
type Config struct {
	// FlowletGap is the idle gap that opens a new flowlet. The paper
	// evaluates the recommended 200 μs and an aggressive 36 μs
	// (1.5 × baseRTT).
	FlowletGap sim.Duration
	// Seed drives random tie-breaking among equally utilized paths.
	Seed int64
}

// State tracks one flow's flowlet and per-path utilization knowledge.
type State struct {
	cfg      Config
	utils    []float64
	haveUtil []bool
	current  int
	lastSend sim.Time
	started  bool
	rng      *rand.Rand
	// Repicks counts flowlet-boundary path decisions (oscillation
	// diagnostics for Fig 5c).
	Repicks int
}

// New returns a state over nPaths candidate paths.
func New(nPaths int, cfg Config) *State {
	if nPaths < 1 {
		panic("clove: need at least one path")
	}
	s := &State{
		cfg:      cfg,
		utils:    make([]float64, nPaths),
		haveUtil: make([]bool, nPaths),
		rng:      stats.NewRand(cfg.Seed),
	}
	s.current = s.rng.Intn(nPaths)
	return s
}

// SetUtil records a path's observed utilization (0..1+), e.g. from an
// INT/ECN feedback loop.
func (s *State) SetUtil(path int, util float64) {
	s.utils[path] = util
	s.haveUtil[path] = true
}

// Util returns the last recorded utilization of a path.
func (s *State) Util(path int) float64 { return s.utils[path] }

// Current returns the path of the ongoing flowlet.
func (s *State) Current() int { return s.current }

// Pick returns the path for a packet sent at now. A packet following an
// idle gap longer than FlowletGap starts a new flowlet, which is steered
// to the least-utilized path (random among ties within 1%).
func (s *State) Pick(now sim.Time) int {
	if s.started && now-s.lastSend <= s.cfg.FlowletGap {
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
		s.Repicks++
	}
	s.current = best
	return s.current
}
