package host

import (
	"slices"

	"ufab/internal/sim"
)

// The bandwidth envelope of PicNIC [Kumar et al., SIGCOMM'19] that the
// paper compares against as PicNIC′ (§2.2) is sender-side weighted fair
// queueing (Agent.nextEligible) plus receiver-driven admission control,
// similar to EyeQ: the receiver measures each incoming VM-pair's demand
// over a short window and, when the aggregate exceeds the target downlink
// capacity, grants per-pair rates by weighted max-min fair sharing; the
// grants travel back on acknowledgments (Agent.admissionUpdate).
//
// PicNIC′ guarantees performance at the edge but is blind to fabric
// congestion — the limitation the informative core removes.

// picnicDemand is one incoming VM-pair's measured state at the receiver.
type picnicDemand struct {
	// weight is the pair's share weight (bandwidth tokens).
	weight float64
	// bytes is the payload received in the current window.
	bytes int64
}

// picnicAllocate computes per-pair rate grants in bits/s given the
// receiver's target capacity and each pair's measured demand over the
// window, into dst (grown when short; pass the previous grants back and a
// receiver's tick allocates nothing). It returns nil when the aggregate fits
// under the capacity (no admission needed — senders stay uncapped).
//
// Otherwise the grants are the weighted max-min shares of the capacity
// among the active pairs; demand does not cap a grant (a pair may ramp up
// next window). On one link with no demand cap the water-fill ends in its
// first step: every pair gets capacity/Σweight times its weight — exactly
// what stats.Waterfill computes, to the bit (TestAllocateIsWaterfill).
func picnicAllocate(dst []float64, capacityBps float64, window sim.Duration, demands []picnicDemand) []float64 {
	if len(demands) == 0 {
		return nil
	}
	total, weights := 0.0, 0.0
	for _, d := range demands {
		total += float64(d.bytes*8) / window.Seconds()
		weights += d.weight
	}
	if total <= capacityBps {
		return nil
	}
	dst = slices.Grow(dst[:0], len(demands))[:len(demands)]
	if !(weights > 0) { // no pair has a weight: the water-fill takes no step
		clear(dst)
		return dst
	}
	level := capacityBps / weights
	for i, d := range demands {
		dst[i] = level * d.weight
	}
	return dst
}
