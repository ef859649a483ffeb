// Package wcc implements Weighted Congestion Control in the style the
// paper evaluates (§2.2, §5): a Swift-like delay-based window algorithm
// [Kumar et al., SIGCOMM'20] whose additive increase is scaled by a
// per-source weight, as Seawall-family bandwidth allocators do. It is the
// transport inside the PicNIC′+WCC+Clove (PWC) baseline.
//
// The package is a pure state machine — the host agent feeds it ACK
// events and reads the congestion window — so its convergence behavior is
// unit-testable without a network.
package wcc

import "ufab/internal/sim"

// The algorithm constants of the evaluation (Swift's defaults).
const (
	// ai is the additive increase in bytes per RTT per unit weight: one
	// MTU.
	ai = 1500.0
	// beta scales the multiplicative decrease with the relative delay
	// excess (Swift's β).
	beta = 0.8
	// maxMDF caps the per-RTT multiplicative decrease factor.
	maxMDF = 0.5
	// minCwnd and maxCwnd bound the window in bytes.
	minCwnd = 1500.0
	maxCwnd = 64 << 20
)

// Flow is one weighted flow's congestion state.
type Flow struct {
	// targetDelay is the end-to-end delay target; below it the window
	// grows, above it the window shrinks (Swift's base target).
	targetDelay sim.Duration
	Weight      float64
	Cwnd        float64 // bytes
	// lastDecrease enforces at most one multiplicative decrease per RTT.
	lastDecrease sim.Time
}

// NewFlow returns a flow with the given delay target, weight and initial
// window.
func NewFlow(targetDelay sim.Duration, weight, initialCwnd float64) *Flow {
	f := &Flow{targetDelay: targetDelay, Weight: weight, Cwnd: initialCwnd}
	f.clamp()
	return f
}

func (f *Flow) clamp() {
	f.Cwnd = min(max(f.Cwnd, minCwnd), maxCwnd)
}

// OnAck updates the window from one acknowledgment: rtt is the measured
// delay, acked the bytes covered. Increase is weighted additive
// (AI·weight per RTT, spread per-ack); decrease is multiplicative in the
// relative delay excess, at most once per RTT — the slow, heuristic
// evolution the paper contrasts with μFAB's jump-to-target.
func (f *Flow) OnAck(now sim.Time, rtt sim.Duration, acked int) {
	if rtt <= f.targetDelay {
		f.Cwnd += ai * f.Weight * float64(acked) / f.Cwnd
	} else if now-f.lastDecrease >= rtt {
		excess := float64(rtt-f.targetDelay) / float64(rtt)
		f.Cwnd *= 1 - min(beta*excess, maxMDF)
		f.lastDecrease = now
	}
	f.clamp()
}

// OnLoss halves the window (retransmission-timeout response).
func (f *Flow) OnLoss() {
	f.Cwnd *= 0.5
	f.clamp()
}
