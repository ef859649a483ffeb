package host

import "ufab/internal/sim"

// The WCC constants of the evaluation (Swift's defaults).
const (
	// wccAI is the additive increase in bytes per RTT per unit weight: one
	// MTU.
	wccAI = 1500.0
	// wccBeta scales the multiplicative decrease with the relative delay
	// excess (Swift's β).
	wccBeta = 0.8
	// maxMDF caps the per-RTT multiplicative decrease factor.
	maxMDF = 0.5
	// minCwnd and maxCwnd bound the window in bytes.
	minCwnd = 1500.0
	maxCwnd = 64 << 20
)

// wccFlow is one weighted flow's congestion state under Weighted Congestion
// Control in the style the paper evaluates (§2.2, §5): a Swift-like
// delay-based window algorithm [Kumar et al., SIGCOMM'20] whose additive
// increase is scaled by a per-source weight, as Seawall-family bandwidth
// allocators do. It is the transport inside the PicNIC′+WCC+Clove (PWC)
// baseline, a pure state machine — the agent feeds it ACK events and reads
// the congestion window.
type wccFlow struct {
	// targetDelay is the end-to-end delay target; below it the window
	// grows, above it the window shrinks (Swift's base target).
	targetDelay sim.Duration
	weight      float64
	cwnd        float64 // bytes
	// lastDecrease enforces at most one multiplicative decrease per RTT.
	lastDecrease sim.Time
}

// newWCCFlow returns a flow with the given delay target, weight and initial
// window.
func newWCCFlow(targetDelay sim.Duration, weight, initialCwnd float64) *wccFlow {
	f := &wccFlow{targetDelay: targetDelay, weight: weight, cwnd: initialCwnd}
	f.clamp()
	return f
}

func (f *wccFlow) clamp() {
	f.cwnd = min(max(f.cwnd, minCwnd), maxCwnd)
}

// onAck updates the window from one acknowledgment: rtt is the measured
// delay, acked the bytes covered. Increase is weighted additive
// (AI·weight per RTT, spread per-ack); decrease is multiplicative in the
// relative delay excess, at most once per RTT — the slow, heuristic
// evolution the paper contrasts with μFAB's jump-to-target.
func (f *wccFlow) onAck(now sim.Time, rtt sim.Duration, acked int) {
	if rtt <= f.targetDelay {
		f.cwnd += wccAI * f.weight * float64(acked) / f.cwnd
	} else if now-f.lastDecrease >= rtt {
		excess := float64(rtt-f.targetDelay) / float64(rtt)
		f.cwnd *= 1 - min(wccBeta*excess, maxMDF)
		f.lastDecrease = now
	}
	f.clamp()
}

// onLoss halves the window (retransmission-timeout response).
func (f *wccFlow) onLoss() {
	f.cwnd *= 0.5
	f.clamp()
}
