// Package elasticswitch implements the Rate Allocation (RA) half of
// ElasticSwitch [Popa et al., SIGCOMM'13] as the paper's ES+Clove baseline
// uses it: every VM-pair sends at least its minimum-bandwidth guarantee
// (its tokens × B_u, fixed by the host) and probes for spare capacity
// with a TCP-like rate AIMD driven by ECN congestion feedback. Crucially,
// the rate never drops below the guarantee even when the network is
// congested — which is why ES+Clove keeps its guarantees in Fig 11 but
// builds deep queues in Fig 11e.
package elasticswitch

import "ufab/internal/sim"

// The RA constants of the evaluation.
const (
	// aiBps is the additive rate increase per RTT when uncongested.
	aiBps = 200e6
	// beta is the multiplicative decrease applied to the above-guarantee
	// headroom on congestion.
	beta = 0.5
)

// RA is one VM-pair's rate allocation state.
type RA struct {
	// maxRateBps caps the rate (the path line rate).
	maxRateBps float64
	// Guarantee is the pair's minimum bandwidth in bits/s (from GP).
	Guarantee float64
	// Rate is the current sending rate in bits/s.
	Rate         float64
	lastDecrease sim.Time
}

// New returns an RA capped at maxRateBps, starting at the guarantee.
func New(maxRateBps, guarantee float64) *RA {
	ra := &RA{maxRateBps: maxRateBps, Guarantee: guarantee, Rate: guarantee}
	ra.clamp()
	return ra
}

// SetGuarantee updates the guarantee when GP reassigns tokens.
func (ra *RA) SetGuarantee(g float64) {
	ra.Guarantee = g
	ra.clamp()
}

func (ra *RA) clamp() {
	if ra.Rate < ra.Guarantee {
		ra.Rate = ra.Guarantee
	}
	if ra.maxRateBps > 0 && ra.Rate > ra.maxRateBps {
		ra.Rate = ra.maxRateBps
	}
}

// OnAck advances the rate from one acknowledgment: congestion (ECN echo)
// multiplicatively shrinks only the headroom above the guarantee, at most
// once per RTT; otherwise the rate grows additively (rate-probing for
// work conservation).
func (ra *RA) OnAck(now sim.Time, rtt sim.Duration, acked int, congested bool) {
	if congested {
		if now-ra.lastDecrease >= rtt {
			ra.Rate = ra.Guarantee + (ra.Rate-ra.Guarantee)*(1-beta)
			ra.lastDecrease = now
		}
	} else {
		// Per-ack share of the per-RTT additive increase.
		bdp := ra.Rate * rtt.Seconds() / 8
		if bdp > 0 {
			ra.Rate += aiBps * float64(acked) / 8 / bdp
		}
	}
	ra.clamp()
}

// OnLoss reacts to a retransmission timeout like congestion.
func (ra *RA) OnLoss(now sim.Time) {
	ra.Rate = ra.Guarantee + (ra.Rate-ra.Guarantee)*(1-beta)
	ra.lastDecrease = now
	ra.clamp()
}
