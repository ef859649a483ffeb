package host

import "ufab/internal/sim"

// The ElasticSwitch RA constants of the evaluation.
const (
	// esAIBps is the additive rate increase per RTT when uncongested.
	esAIBps = 200e6
	// esBeta is the multiplicative decrease applied to the above-guarantee
	// headroom on congestion.
	esBeta = 0.5
)

// esRA is one VM-pair's Rate Allocation (RA) state, the half of
// ElasticSwitch [Popa et al., SIGCOMM'13] the paper's ES+Clove baseline
// uses: every VM-pair sends at least its minimum-bandwidth guarantee (its
// tokens × B_u, fixed by the host) and probes for spare capacity with a
// TCP-like rate AIMD driven by ECN congestion feedback. Crucially, the rate
// never drops below the guarantee even when the network is congested —
// which is why ES+Clove keeps its guarantees in Fig 11 but builds deep
// queues in Fig 11e.
type esRA struct {
	// maxRateBps caps the rate (the path line rate).
	maxRateBps float64
	// guarantee is the pair's minimum bandwidth in bits/s.
	guarantee float64
	// rate is the current sending rate in bits/s.
	rate         float64
	lastDecrease sim.Time
}

// newESRA returns an RA capped at maxRateBps, starting at the guarantee.
func newESRA(maxRateBps, guarantee float64) *esRA {
	ra := &esRA{maxRateBps: maxRateBps, guarantee: guarantee, rate: guarantee}
	ra.clamp()
	return ra
}

func (ra *esRA) clamp() {
	if ra.rate < ra.guarantee {
		ra.rate = ra.guarantee
	}
	if ra.maxRateBps > 0 && ra.rate > ra.maxRateBps {
		ra.rate = ra.maxRateBps
	}
}

// onAck advances the rate from one acknowledgment: congestion (ECN echo)
// multiplicatively shrinks only the headroom above the guarantee, at most
// once per RTT; otherwise the rate grows additively (rate-probing for
// work conservation).
func (ra *esRA) onAck(now sim.Time, rtt sim.Duration, acked int, congested bool) {
	if congested {
		if now-ra.lastDecrease >= rtt {
			ra.rate = ra.guarantee + (ra.rate-ra.guarantee)*(1-esBeta)
			ra.lastDecrease = now
		}
	} else {
		// Per-ack share of the per-RTT additive increase.
		bdp := ra.rate * rtt.Seconds() / 8
		if bdp > 0 {
			ra.rate += esAIBps * float64(acked) / 8 / bdp
		}
	}
	ra.clamp()
}

// onLoss reacts to a retransmission timeout like congestion.
func (ra *esRA) onLoss(now sim.Time) {
	ra.rate = ra.guarantee + (ra.rate-ra.guarantee)*(1-esBeta)
	ra.lastDecrease = now
	ra.clamp()
}
