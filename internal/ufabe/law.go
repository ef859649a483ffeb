package ufabe

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
)

// The control law of μFAB-E (§3.3–§3.5, and Appendix E's Guarantee
// Partitioning) as functions of values: each takes pair and path state, the
// hop records of a decoded response and the time — or a VF's hose and its
// pairs' demands and requests — and returns a small decision value, or one
// per pair, that Agent applies. Nothing here reaches an engine, a network, a
// graph or a recorder — what the law needs of them (a base RTT, a path's
// minimum capacity, whether demand is pending, a pair's measured demand)
// arrives as an argument, and randomness as the caller's *rand.Rand — so
// law_test.go iterates it against a synthetic link with no fabric at all.

// The paper's numbers the law is written over. No experiment, fuzz case,
// daemon flag or benchmark workload ever varied them.
const (
	// BU is B_u, the bandwidth one token represents, in bits/s.
	BU = 100e6
	// mtu is the data packet size in bytes: the DRR quantum, and the floor
	// of every window (one packet keeps the ack clock alive).
	mtu = 1500
	// ackSize is the acknowledgment size in bytes.
	ackSize = 64
	// eta is η: the law allocates the target capacity C̄_l = η·C_l.
	eta = probe.TargetUtilization
	// violationRTTs is how many consecutive RTT-spaced observations of a
	// starved pair on an unqualified path trigger a migration (§3.5).
	violationRTTs = 5
	// idleFinishAfter is the idle time after which a pair sends its finish
	// probe: deregistering idle pairs promptly keeps the proportional
	// shares of the active ones undiluted, which is what work conservation
	// for bursty RPC traffic rests on.
	idleFinishAfter = 200 * sim.Microsecond
)

// allocation is what one response says about a path.
type allocation struct {
	share     float64 // r_{a→b}: proportional share of the bottleneck, bits/s (Eqn 1)
	window    int64   // w_{a→b}: utilization-based window, bytes (Eqn 3), at least one MTU
	qualified bool    // Φ_l·B_u ≤ C̄_l on every link
	// subscription is the largest Φ_l·B_u/C̄_l along the path, for the
	// minimum-subscription preference.
	subscription float64
}

// allocate is Eqns (1) and (3) plus qualification over a response's hop
// records, for a pair holding token phi whose window is currently sending
// bytes, on a path of the given base RTT.
func allocate(phi float64, sending int64, baseRTT sim.Duration, hops []probe.Hop) allocation {
	T := baseRTT.Seconds()
	share, window := math.Inf(1), math.Inf(1)
	al := allocation{qualified: true}
	for _, h := range hops {
		target := eta * h.Capacity // C̄_l
		phiTotal := h.TotalTokens
		if phiTotal < phi {
			// The core's registers always include our own probe's φ;
			// guard against quantization shaving it below φ.
			phiTotal = phi
		}
		if phiTotal <= 0 {
			phiTotal = math.SmallestNonzeroFloat64
		}
		// Eqn (1): proportional share of the target capacity.
		if rl := phi / phiTotal * target; rl < share {
			share = rl
		}
		// Eqn (3): utilization-based window.
		bdpBytes := target * T / 8
		wl := bdpBytes
		if denomBytes := h.TxRate*T/8 + float64(h.Queue); denomBytes > 0 {
			totalW := float64(h.TotalWindow)
			if totalW < float64(sending) {
				totalW = float64(sending)
			}
			if wl = phi / phiTotal * totalW * bdpBytes / denomBytes; wl > bdpBytes {
				wl = bdpBytes
			}
		}
		if wl < window {
			window = wl
		}
		// Qualification: the total subscription must fit under the
		// target capacity (Φ_l already includes our φ on this path).
		sub := phiTotal * BU / target
		if sub > al.subscription {
			al.subscription = sub
		}
		if sub > 1 {
			al.qualified = false
		}
	}
	al.share = share
	if al.window = int64(window); al.window < mtu {
		al.window = mtu
	}
	return al
}

// admissionStage is the two-stage traffic admission state (§3.4).
type admissionStage uint8

const (
	// stageRamp additively increases a bootstrap window until it crosses
	// the Eqn-3 window.
	stageRamp admissionStage = iota
	// stageSteady uses the Eqn-3 window directly.
	stageSteady
)

// ramp is a pair's two-stage admission state.
type ramp struct {
	stage      admissionStage
	rampWindow float64 // w′ in bytes during stageRamp
	lastRampAt sim.Time
}

// startRamp opens the first stage. Scenario-1 (a new pair, or a fresh path)
// passes no share and bootstraps at the guarantee φ·B_u·T; Scenario-2 (a
// reactivated pair) passes its last proportional share and starts at r·T,
// never below the guarantee — a reactivating pair must reach its minimum
// bandwidth at once, not re-earn it.
func startRamp(phi, share float64, baseRTT sim.Duration, now sim.Time) ramp {
	w := phi * BU * baseRTT.Seconds() / 8
	if s := share * baseRTT.Seconds() / 8; s > w {
		w = s
	}
	if w < mtu {
		w = mtu
	}
	return ramp{stageRamp, w, now}
}

// admitted is the sending window: the Eqn-3 window, held down to the ramp's
// during the first stage — and before the first response, the ramp's alone.
func (r ramp) admitted(al allocation, responded bool) int64 {
	if w := int64(r.rampWindow); r.stage == stageRamp && (w <= al.window || !responded) {
		return w
	}
	return al.window
}

// unramped is μFAB′'s admission (Figs 12 and 16): no first stage, and until
// the first response a full BDP of the path's slowest link.
func unramped(minCapacity float64, baseRTT sim.Duration) int64 {
	return int64(minCapacity * baseRTT.Seconds() / 8)
}

// advance grows the ramp window by the proportional share per RTT and
// enters the steady stage once it crosses the Eqn-3 window.
func (r ramp) advance(al allocation, baseRTT sim.Duration, now sim.Time) ramp {
	elapsed := now - r.lastRampAt
	if r.stage != stageRamp || elapsed <= 0 {
		return r
	}
	if elapsed > baseRTT {
		elapsed = baseRTT
	}
	r.rampWindow += al.share * elapsed.Seconds() / 8
	r.lastRampAt = now
	if int64(r.rampWindow) >= al.window {
		r.stage = stageSteady
	}
	return r
}

// violation is the state of §3.5's trigger (i): the pair must be
// consistently missing its minimum bandwidth while having sufficient demand
// and the path must be oversubscribed. A merely oversubscribed path that
// still delivers (others have insufficient demand — Case-2's P1) is not
// abandoned; a transient rate dip on a qualified path is left to the
// allocation loop.
type violation struct {
	streak    int
	at        sim.Time // of the last RTT-spaced observation
	delivered int64    // the pair's acknowledged bytes then
}

// step folds one observation into the streak: a lost probe, or a response
// that found the pair starved on an unqualified path, extends it; any other
// observation resets it.
func (v violation) step(violated bool) violation {
	v.streak++
	if !violated {
		v.streak = 0
	}
	return v
}

// tripped reports whether the streak calls for a migration.
func (v violation) tripped() bool { return v.streak >= violationRTTs }

// observe is step for a response on the active path: at most one
// observation per base RTT, of the rate achieved since the previous one
// against 92 % of the guarantee.
func (v violation) observe(now sim.Time, baseRTT sim.Duration, delivered int64, guarantee float64, qualified, backlogged bool) violation {
	elapsed := now - v.at
	if elapsed < baseRTT {
		return v
	}
	rate := float64(delivered-v.delivered) * 8 / elapsed.Seconds()
	v = v.step(backlogged && !qualified && rate < 0.92*guarantee)
	v.at, v.delivered = now, delivered
	return v
}

// fresh reports whether the path has a response newer than age.
func (ps *pathState) fresh(now sim.Time, age sim.Duration) bool {
	return ps.responded && now-ps.lastRespAt <= age
}

// selectPath is §3.5's path selection: "among all qualified paths, it
// selects one randomly with a preference to the path with minimum bandwidth
// subscription" — uniformly among the fresh (and, when qualifiedOnly,
// qualified) paths within 0.2 of the smallest subscription, −1 when there is
// none. Randomization matters: a deterministic argmin would herd every
// migrating pair onto the same link and oscillate. One draw, and only when a
// path can be returned.
func selectPath(paths []*pathState, now sim.Time, freshAge sim.Duration, qualifiedOnly bool, rng *rand.Rand) int {
	usable := func(ps *pathState) bool { return ps.fresh(now, freshAge) && (ps.qualified || !qualifiedOnly) }
	minSub, n := -1.0, 0
	for _, ps := range paths {
		if usable(ps) && (minSub < 0 || ps.subscription < minSub) {
			minSub = ps.subscription
		}
	}
	if minSub < 0 {
		return -1
	}
	for _, ps := range paths {
		if usable(ps) && ps.subscription <= minSub+0.2 {
			n++
		}
	}
	k := rng.Intn(n)
	for i, ps := range paths {
		if usable(ps) && ps.subscription <= minSub+0.2 {
			if k--; k < 0 {
				return i
			}
		}
	}
	return -1
}

// betterPath is §3.5's trigger (ii), the slow hunt for work conservation:
// among the fresh qualified candidates only the one with the largest share
// counts, and it wins a migration once it has beaten the active path's
// share by 20 % continuously for hold. since is when it was first seen
// better (0: not yet); the result is the new since and the path to move to,
// −1 to stay.
func betterPath(paths []*pathState, active int, now sim.Time, freshAge, hold sim.Duration, since sim.Time) (sim.Time, int) {
	best := -1
	for i, ps := range paths {
		if i != active && ps.fresh(now, freshAge) && ps.qualified && (best == -1 || ps.share > paths[best].share) {
			best = i
		}
	}
	switch {
	case best == -1 || paths[best].share <= 1.2*paths[active].share:
		return 0, -1
	case since == 0:
		return now, -1
	case now-since >= hold:
		return 0, best
	}
	return since, -1
}

// Guarantee Partitioning (Appendix E, Algorithm 1) splits a VF's hose tokens
// φ^a over its VM-pairs. The sender apportions its hose by measured demand
// and conveys each pair's share to the receiver as a request; the receiver
// arbitrates the requests against its own hose, max-min fair, and answers
// with an admission; a pair's effective token is the smaller of the two
// (Pair.effectivePhi). A pair whose demand is below the equal share is still
// given the equal share ("boost"), so it can ramp at once when demand
// returns, while the spare goes to its siblings: at most twice the VF's
// tokens are in the network for one RTT.

// unbound is an admission that does not constrain the sender: the request
// fitted under the receiver's fair share.
const unbound = math.MaxFloat64

// stackPairs is how many of a VF's pairs the two sides of Algorithm 1 order
// without touching the heap: their index slice starts on the stack and
// spills for a VF with more pairs on one host. They run every token period
// on every host, so what they allocate is allocated per simulated event.
const stackPairs = 16

// tokenPair is one of a VF's pairs on the sending host as the sender side of
// Algorithm 1 sees it.
type tokenPair struct {
	// pinned pairs keep phi (whoever called SetPhi owns it); the others
	// share what is left of the hose.
	pinned bool
	phi    float64
	// demand is the measured demand in tokens; negative means backlogged.
	demand float64
	// admitted is the receiver's last admission; 0 (none yet, or unbound on
	// the wire) does not constrain.
	admitted float64
}

// assignTokens is Algorithm 1's sender side: it appends each pair's φ to phi,
// in the order of pairs, and returns phi unchanged when there is nothing to
// assign (no hose left once the pinned pairs are served, or no pair to
// serve). Three classes emerge among the unpinned pairs: demand-bounded ones
// (measured demand below the equal share) get the equal share and donate
// the rest of it; receiver-bounded ones (a previous admission below the
// current share) are clipped to their admission; the others split what is
// left, max-min in ascending order of admission.
func assignTokens(phi []float64, hose float64, pairs []tokenPair) []float64 {
	if hose <= 0 {
		return phi
	}
	n := 0
	for _, p := range pairs {
		if p.pinned {
			hose -= p.phi
		} else {
			n++
		}
	}
	if hose <= 0 || n == 0 {
		return phi
	}
	equal := hose / float64(n)
	spare := 0.0
	var buf [stackPairs]int
	rest := buf[:0]
	base := len(phi)
	for i, p := range pairs {
		switch {
		case p.pinned:
			phi = append(phi, p.phi)
		case p.demand >= 0 && p.demand < equal:
			spare += equal - p.demand
			phi = append(phi, equal)
		default:
			phi = append(phi, 0)
			rest = append(rest, i)
		}
	}
	admitted := func(i int) float64 {
		if a := pairs[i].admitted; a > 0 {
			return a
		}
		return unbound
	}
	slices.SortStableFunc(rest, func(i, j int) int { return cmp.Compare(admitted(i), admitted(j)) })
	left, remaining := equal*float64(len(rest))+spare, len(rest)
	for _, i := range rest {
		share := left / float64(remaining)
		if adm := admitted(i); adm < share {
			share = adm
		}
		phi[base+i] = share
		left -= share
		remaining--
	}
	return phi
}

// tokenRequest is a VM-pair's request at the receiving host: the φ its
// sender's last probe carried.
type tokenRequest struct {
	id        dataplane.VMPair
	requested float64
}

// admitTokens is Algorithm 1's receiver side: max-min fair arbitration of
// the requests of one VF's pairs against the VF's hose. It appends each
// request's admission to adm, in the order of reqs: unbound when the request
// fits under the fair share, the share otherwise. Requests are served in
// ascending order of request and then of pair id (ids are distinct), so
// tied requests get the same admissions whatever order they arrive in.
func admitTokens(adm []float64, hose float64, reqs []tokenRequest) []float64 {
	var buf [stackPairs]int
	order := buf[:0]
	base := len(adm)
	for i := range reqs {
		order = append(order, i)
		adm = append(adm, unbound)
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := cmp.Compare(reqs[i].requested, reqs[j].requested); c != 0 {
			return c
		}
		return cmp.Compare(reqs[i].id, reqs[j].id)
	})
	left, remaining := hose, len(reqs)
	for _, i := range order {
		share := left / float64(remaining)
		if r := reqs[i].requested; r <= share {
			left -= r
		} else {
			adm[base+i] = share
			left -= share
		}
		remaining--
	}
	return adm
}
