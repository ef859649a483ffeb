package ufabe

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
)

// The law iterated against a synthetic network: no engine, no dataplane, no
// fabric. One round is one base RTT of a fluid model — every pair offers its
// window (or its demand, if smaller), every link serves what it is offered
// up to its line rate and queues the rest, and every pair then reads the hop
// records a probe of that round would have collected (Φ_l, W_l, tx_l, q_l,
// C_l in physical units, as probe.Decode delivers them) and asks the law
// for its next window. Pairs grouped into a VF then have their tokens split
// by Guarantee Partitioning's sender side, once per round (the token period
// is 32 µs, a round 24 µs); every other pair keeps a fixed φ. What the model
// leaves out: queueing delay (the RTT stays T), the wire's quantization,
// probe loss and the receiver side of the token loop (each pair ends at a
// VM of its own, and a lone request never exceeds the hose it is admitted
// against).

// synRTT is the base RTT of every synthetic path.
const synRTT = 24 * sim.Microsecond

type synPair struct {
	phi       float64
	demand    float64 // bits/s; negative = backlogged
	links     []int
	ramp      ramp
	al        allocation
	responded bool
	rate      float64 // bits/s offered in the last round
	drained   bool    // the demand, not the window, bounded the last round
}

func (p *synPair) window() int64 { return p.ramp.admitted(p.al, p.responded) }

type synNet struct {
	capacity []float64 // line rate per link, bits/s
	queue    []float64 // bytes
	pairs    []*synPair
	vfs      []synVF
	now      sim.Time
}

// synVF is a VF whose pairs, all from one sender, split its hose by
// Guarantee Partitioning.
type synVF struct {
	hose  float64
	pairs []*synPair
}

// add admits a pair in Scenario-1 on the given links.
func (n *synNet) add(phi, demand float64, links ...int) *synPair {
	p := &synPair{phi: phi, demand: demand, links: links, ramp: startRamp(phi, 0, synRTT, n.now)}
	n.pairs = append(n.pairs, p)
	return p
}

// round advances the model by one RTT.
func (n *synNet) round() {
	T := synRTT.Seconds()
	phiL := make([]float64, len(n.capacity))
	winL := make([]float64, len(n.capacity))
	offL := make([]float64, len(n.capacity))
	for _, p := range n.pairs {
		offered := float64(p.window())
		d := p.demand * T / 8
		if p.drained = p.demand >= 0 && d < offered; p.drained {
			offered = d
		}
		p.rate = offered * 8 / T
		for _, l := range p.links {
			phiL[l] += p.phi
			winL[l] += float64(p.window())
			offL[l] += offered
		}
	}
	hops := make([]probe.Hop, len(n.capacity))
	for l, c := range n.capacity {
		served := math.Min(n.queue[l]+offL[l], c*T/8)
		n.queue[l] += offL[l] - served
		hops[l] = probe.Hop{TotalWindow: uint32(winL[l]), TotalTokens: phiL[l],
			TxRate: served * 8 / T, Queue: uint32(n.queue[l]), Capacity: c}
	}
	n.now += sim.Time(synRTT)
	for _, p := range n.pairs {
		path := make([]probe.Hop, len(p.links))
		for i, l := range p.links {
			path[i] = hops[l]
		}
		p.al, p.responded = allocate(p.phi, p.window(), synRTT, path), true
		p.ramp = p.ramp.advance(p.al, synRTT, n.now)
	}
	for _, vf := range n.vfs {
		tps := make([]tokenPair, len(vf.pairs))
		for i, p := range vf.pairs {
			tps[i].demand = -1
			if p.drained {
				tps[i].demand = p.rate / BU
			}
		}
		for i, phi := range assignTokens(nil, vf.hose, tps) {
			vf.pairs[i].phi = phi
		}
	}
}

// ideal is the weighted max-min allocation of the pairs on the target
// capacities η·C_l.
func (n *synNet) ideal() []float64 {
	weights := make([]float64, len(n.pairs))
	demands := make([]float64, len(n.pairs))
	links := make([]stats.WaterfillLink, len(n.capacity))
	for l, c := range n.capacity {
		links[l].Capacity = eta * c
	}
	for i, p := range n.pairs {
		weights[i], demands[i] = p.phi, p.demand
		for _, l := range p.links {
			links[l].Flows = append(links[l].Flows, i)
		}
	}
	return stats.Waterfill(weights, demands, links)
}

// worst returns the largest relative distance of a pair's rate from ideal.
func (n *synNet) worst(ideal []float64) float64 {
	w := 0.0
	for i, p := range n.pairs {
		w = math.Max(w, math.Abs(p.rate-ideal[i])/ideal[i])
	}
	return w
}

// settle runs the given number of rounds and returns the first round from
// which every pair stayed within tol of ideal (rounds+1: it never did).
func (n *synNet) settle(ideal []float64, tol float64, rounds int) int {
	settled := 1
	for r := 1; r <= rounds; r++ {
		if n.round(); n.worst(ideal) > tol {
			settled = r + 1
		}
	}
	return settled
}

func newSynNet(capacity ...float64) *synNet {
	return &synNet{capacity: capacity, queue: make([]float64, len(capacity))}
}

// lawTol is how close "settled" is: windows are whole bytes, so a rate is
// off its ideal by up to a byte per RTT.
const lawTol = 1e-3

// TestLawBackloggedFixedPoint is property (a): N weighted backlogged pairs on
// one link settle on the weighted max-min allocation of η·C within 3 RTTs
// (the first on the bootstrap windows, the second on the Eqn-3 windows the
// first response yields) and stay there, with no queue. The links are fast
// enough that no share is below the one-MTU window floor, the one thing that
// bends the proportions (with a dozen pairs on 25 Gb/s the 5-token ones sit
// on it above their share).
func TestLawBackloggedFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := newSynNet([]float64{100e9, 400e9}[trial%2])
		for i, pairs := 0, 2+rng.Intn(11); i < pairs; i++ {
			n.add(5+float64(rng.Intn(36)), -1, 0)
		}
		if r := n.settle(n.ideal(), lawTol, 20); r > 3 {
			t.Errorf("trial %d (%d pairs): settled at round %d, want <= 3", trial, len(n.pairs), r)
		}
		if n.queue[0] != 0 {
			t.Errorf("trial %d: %v bytes queued at the fixed point", trial, n.queue[0])
		}
	}
}

// TestLawDemandLimited is property (b). The backlogged pairs take the slack
// the demand-limited ones leave in exact proportion to their tokens. How much
// of the slack they take depends on the limited pairs' tokens: Eqn 3 scales
// every window by C̄T/(tx·T+q), a limited pair's window counts in W_l whether
// it is used or not, and each window is capped at one BDP — so while no
// limited pair's proportional window reaches a BDP the fixed point is the
// water-filling one, and once one does (a pair holding more than half the
// link's tokens and using a tenth of the link) W_l stops growing with the
// others' and the link settles short of η·C. In the fabric the token loop
// moves a limited pair's token to its VF's busy pairs and an idle pair's
// finish probe removes it from Φ_l; the law alone, at fixed φ, has the
// tolerance recorded here.
func TestLawDemandLimited(t *testing.T) {
	for _, tc := range []struct {
		name    string
		phi     []float64
		demand  []float64 // bits/s, negative = backlogged
		tol     float64   // distance from stats.Waterfill at the fixed point
		settled int       // rounds
	}{
		{"small tokens limited", []float64{20, 5, 40, 10}, []float64{-1, 0.3e9, -1, 0.8e9}, lawTol, 12},
		{"large token limited", []float64{5, 10, 20, 40}, []float64{-1, 0.5e9, -1, 1e9}, 0.11, 12},
	} {
		n := newSynNet(10e9)
		for i, phi := range tc.phi {
			n.add(phi, tc.demand[i], 0)
		}
		ideal := n.ideal()
		if r := n.settle(ideal, tc.tol, 30); r > tc.settled {
			t.Errorf("%s: within %v of water-filling from round %d, want <= %d (worst now %.4f)", tc.name, tc.tol, r, tc.settled, n.worst(ideal))
		}
		var perToken []float64
		for i, p := range n.pairs {
			if p.demand < 0 {
				perToken = append(perToken, p.rate/p.phi)
			} else if p.rate != tc.demand[i] {
				t.Errorf("%s: limited pair %d sends %v, demands %v", tc.name, i, p.rate, tc.demand[i])
			}
		}
		for _, r := range perToken[1:] {
			if math.Abs(r-perToken[0]) > lawTol*perToken[0] {
				t.Errorf("%s: backlogged pairs get %v bits/s per token, not in proportion", tc.name, perToken)
			}
		}
	}
}

// TestLawDemandLimitedPartitioned is property (b)'s large-token row with the
// token loop's sender side: the limited pair shares a VF of hose 60 (the
// two pairs' tokens) with the backlogged φ-20 pair. Guarantee Partitioning
// boosts it to the equal share, 30, and moves the 20 it leaves unused to its
// sibling, so it no longer holds more than half of the link's tokens and
// W_l grows with the busy pairs' windows again. How far the rates then
// settle from water-filling over the tokens in force is recorded, not gated
// (DESIGN.md "Algorithm 1 is law").
func TestLawDemandLimitedPartitioned(t *testing.T) {
	n := newSynNet(10e9)
	demand := []float64{-1, 0.5e9, -1, 1e9}
	for i, phi := range []float64{5, 10, 20, 40} {
		n.add(phi, demand[i], 0)
	}
	n.vfs = []synVF{{hose: 60, pairs: n.pairs[2:]}}
	for r := 0; r < 30; r++ {
		n.round()
	}
	if n.pairs[2].phi != 50 || n.pairs[3].phi != 30 {
		t.Errorf("tokens %v and %v, want 50 to the backlogged pair and the equal share 30 to the limited one", n.pairs[2].phi, n.pairs[3].phi)
	}
	sum := 0.0
	for i, p := range n.pairs {
		sum += p.rate
		if demand[i] >= 0 && p.rate != demand[i] {
			t.Errorf("limited pair %d sends %v, demands %v", i, p.rate, demand[i])
		}
	}
	t.Logf("%.3f %% from water-filling over the tokens in force, the link at %.3f %% of η·C", 100*n.worst(n.ideal()), 100*sum/(eta*n.capacity[0]))
}

// TestLawParkingLot is property (c), and the one the law does not meet. On
// the link every pair is backlogged on, tx·T equals W_l, Eqn 3 reduces to
// Eqn 1, and the fixed point is r = min_l φ/Φ_l·η·C_l: the proportional share
// of the tightest link, exactly and within 3 RTTs. That is the weighted
// max-min rate for the pairs bottlenecked where they are most outweighed —
// the long pair here — but a pair sharing a link with one that is
// bottlenecked elsewhere does not pick up what that one leaves: the short
// pair on link 0 holds η·C/2 where water-filling gives it 3/4 η·C, a third
// below. Only unused window (insufficient demand, property b) is
// redistributed, not another bottleneck's slack.
func TestLawParkingLot(t *testing.T) {
	n := newSynNet(10e9, 10e9)
	long := n.add(10, -1, 0, 1)
	short0 := n.add(10, -1, 0)
	short1 := n.add(30, -1, 1)
	proportional := []float64{10.0 / 40 * eta * 10e9, 10.0 / 20 * eta * 10e9, 30.0 / 40 * eta * 10e9}
	if r := n.settle(proportional, lawTol, 20); r > 3 {
		t.Errorf("settled on the proportional shares at round %d, want <= 3", r)
	}
	ideal := n.ideal()
	for _, p := range []*synPair{long, short1} {
		if i := slices.Index(n.pairs, p); math.Abs(p.rate-ideal[i]) > lawTol*ideal[i] {
			t.Errorf("pair %d on the tight link: %v, water-filling gives %v", i, p.rate, ideal[i])
		}
	}
	if got, want := short0.rate/ideal[1], 2.0/3; math.Abs(got-want) > lawTol {
		t.Errorf("short pair on the slack link holds %.4f of its water-filling rate, recorded %.4f", got, want)
	}
	for l, q := range n.queue {
		if q != 0 {
			t.Errorf("link %d: %v bytes queued at the fixed point", l, q)
		}
	}
}

// TestLawStepChange is property (d): pairs arriving on a settled link change
// Φ_l in one step. The standing pairs read the new Φ_l in the next response
// and are on their new shares in the 2nd RTT — the 2.0 fig19 measures — while
// the newcomers' bootstrap windows have put a queue on the link; draining it
// (q_l in Eqn 3's denominator) dips every window for three RTTs, and from the
// 6th RTT on every pair is settled with the queue empty, inside the 8 RTTs
// fig19.within-a-few-rtts allows.
func TestLawStepChange(t *testing.T) {
	n := newSynNet(10e9)
	for _, phi := range []float64{5, 10, 20} {
		n.add(phi, -1, 0)
	}
	n.settle(n.ideal(), lawTol, 10)
	n.add(35, -1, 0)
	n.add(10, -1, 0)
	ideal := n.ideal()
	n.round()
	if n.round(); n.worst(ideal) > lawTol {
		t.Errorf("2nd RTT after the step: %.4f from the new shares", n.worst(ideal))
	}
	r := 2 + n.settle(ideal, lawTol, 20)
	if t.Logf("settled from RTT %d after the step", r); r > 8 {
		t.Errorf("settled from RTT %d after the step, want <= 8", r)
	}
	if n.queue[0] != 0 {
		t.Errorf("%v bytes still queued", n.queue[0])
	}
}

// TestLawRamp is property (e).
func TestLawRamp(t *testing.T) {
	T := synRTT
	guarantee := 20 * BU * T.Seconds() / 8 // φ·B_u·T
	if r := startRamp(20, 0, T, 7); r.stage != stageRamp || r.rampWindow != guarantee || r.lastRampAt != 7 {
		t.Errorf("Scenario-1 starts at %+v, want φ·B_u·T = %v", r, guarantee)
	}
	if r := startRamp(20, 8e9, T, 0); r.rampWindow != 8e9*T.Seconds()/8 {
		t.Errorf("Scenario-2 with a larger last share starts at %v, want r·T", r.rampWindow)
	}
	if r := startRamp(20, 1e9, T, 0); r.rampWindow != guarantee {
		t.Errorf("Scenario-2 with a smaller last share starts at %v, want the guarantee %v", r.rampWindow, guarantee)
	}
	if r := startRamp(0.01, 0, T, 0); r.rampWindow != mtu {
		t.Errorf("a tiny token starts at %v, want one MTU", r.rampWindow)
	}
	// Additive increase of r·elapsed, at most one RTT's worth per step;
	// steady exactly when the ramp window reaches the Eqn-3 window.
	al := allocation{share: 4e9, window: int64(guarantee) + 3*int64(4e9*T.Seconds()/8)}
	r := startRamp(20, 0, T, 0)
	if r2 := r.advance(al, T, 0); r2 != r {
		t.Errorf("advance without elapsed time moved the ramp: %+v", r2)
	}
	if r2 := r.advance(al, T, sim.Time(10*T)); r2.rampWindow != guarantee+4e9*T.Seconds()/8 {
		t.Errorf("a late ack grew the ramp to %v, want one RTT's share", r2.rampWindow)
	}
	for step := 1; step <= 3; step++ {
		if r.stage != stageRamp {
			t.Fatalf("steady after %d steps, want 3", step-1)
		}
		if got := r.admitted(al, true); got != int64(r.rampWindow) || got >= al.window {
			t.Errorf("step %d: admitted %d, ramp %v, Eqn-3 %d", step, got, r.rampWindow, al.window)
		}
		r = r.advance(al, T, sim.Time(step)*sim.Time(T))
	}
	if r.stage != stageSteady || int64(r.rampWindow) < al.window {
		t.Errorf("after 3 RTTs: %+v, want steady with the ramp at the Eqn-3 window %d", r, al.window)
	}
	if r2 := r.advance(al, T, sim.Time(9*T)); r2 != r {
		t.Errorf("advance moved a steady ramp: %+v", r2)
	}
	// Before the first response the ramp window alone admits; after it the
	// Eqn-3 window caps it; in steady state the Eqn-3 window admits.
	r = startRamp(20, 0, T, 0)
	if got := r.admitted(allocation{}, false); got != int64(guarantee) {
		t.Errorf("admitted %d before the first response, want the bootstrap window", got)
	}
	if got := r.admitted(allocation{window: mtu}, true); got != mtu {
		t.Errorf("admitted %d under an Eqn-3 window of one MTU", got)
	}
	if unramped(10e9, T) != int64(10e9*T.Seconds()/8) {
		t.Error("μFAB′ does not start at the path BDP")
	}
}

// TestLawViolationStreak is property (f).
func TestLawViolationStreak(t *testing.T) {
	T := synRTT
	const guarantee = 1e9
	starved := int64(0.5 * guarantee * T.Seconds() / 8) // bytes per RTT at half the guarantee
	var v violation
	now, delivered := sim.Time(0), int64(0)
	obs := func(gap sim.Duration, bytes int64, qualified, backlogged bool) {
		now, delivered = now+sim.Time(gap), delivered+bytes
		v = v.observe(now, T, delivered, guarantee, qualified, backlogged)
	}
	for i := 1; i <= violationRTTs; i++ {
		if v.tripped() {
			t.Fatalf("tripped after %d observations, want %d", i-1, violationRTTs)
		}
		obs(T, starved, false, true)
		if v.streak != i {
			t.Fatalf("streak %d after %d starved observations", v.streak, i)
		}
	}
	if !v.tripped() {
		t.Fatalf("not tripped after %d consecutive starved observations", violationRTTs)
	}
	// Each other kind of observation resets the streak.
	for name, reset := range map[string]func(){
		"qualified path":  func() { obs(T, starved, true, true) },
		"no demand":       func() { obs(T, starved, false, false) },
		"rate at 92 %":    func() { obs(T, int64(0.93*guarantee*T.Seconds()/8), false, true) },
		"step(false)":     func() { v = v.step(false) },
		"after migration": func() { v = violation{at: now, delivered: delivered} },
	} {
		v.streak = violationRTTs - 1
		if reset(); v.streak != 0 {
			t.Errorf("%s: streak %d, want 0", name, v.streak)
		}
	}
	// Responses closer than a base RTT are not observations: they neither
	// extend nor reset, and the bytes they saw count in the next one.
	v = violation{streak: 2, at: now, delivered: delivered}
	obs(T/2, starved, true, false)
	if v.streak != 2 || v.at != now-sim.Time(T/2) {
		t.Errorf("a response half an RTT after the last observation changed the state: %+v", v)
	}
	obs(T/2, 0, false, true)
	if v.streak != 3 || v.at != now || v.delivered != delivered {
		t.Errorf("the observation a full RTT after the last: %+v, want streak 3 at %d", v, now)
	}
	// A lost probe extends the streak without touching the rate window.
	if v2 := v.step(true); v2.streak != 4 || v2.at != v.at || v2.delivered != v.delivered {
		t.Errorf("step(true): %+v", v2)
	}
}

// TestLawSelection is property (g), over random candidate sets: selectPath
// never returns a stale path or (when asked) an unqualified one, stays within
// 0.2 of the smallest usable subscription, reaches every path in that band,
// draws exactly once when it returns a path and not at all when it cannot.
func TestLawSelection(t *testing.T) {
	const freshAge = 100 * sim.Microsecond
	now := sim.Time(sim.Millisecond)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		paths := make([]*pathState, 1+rng.Intn(6))
		for i := range paths {
			ps := &pathState{allocation: allocation{qualified: rng.Intn(2) == 0, subscription: 2 * rng.Float64()}}
			switch rng.Intn(4) {
			case 0: // never answered
			case 1: // stale
				ps.responded, ps.lastRespAt = true, now-sim.Time(freshAge)-1
			default:
				ps.responded, ps.lastRespAt = true, now-sim.Time(rng.Int63n(int64(freshAge)+1))
			}
			paths[i] = ps
		}
		qualifiedOnly := trial%2 == 0
		usable := func(ps *pathState) bool { return ps.fresh(now, freshAge) && (ps.qualified || !qualifiedOnly) }
		minSub, band := math.Inf(1), map[int]bool{}
		for _, ps := range paths {
			if usable(ps) {
				minSub = math.Min(minSub, ps.subscription)
			}
		}
		for i, ps := range paths {
			if usable(ps) && ps.subscription <= minSub+0.2 {
				band[i] = true
			}
		}
		seen := map[int]bool{}
		for draw := 0; draw < 30; draw++ {
			src := &countingSource{Source: rand.NewSource(int64(trial*30 + draw))}
			got := selectPath(paths, now, freshAge, qualifiedOnly, rand.New(src))
			switch {
			case len(band) == 0 && (got != -1 || src.draws != 0):
				t.Fatalf("trial %d: no usable path, got %d after %d draws", trial, got, src.draws)
			case len(band) > 0 && (!band[got] || src.draws != 1):
				t.Fatalf("trial %d: got %d after %d draws, want one of %v after 1", trial, got, src.draws, band)
			}
			seen[got] = true
		}
		if len(band) > 0 && len(seen) != len(band) {
			t.Errorf("trial %d: 30 draws reached %v of the band %v", trial, seen, band)
		}
	}
}

// countingSource counts the values drawn from a rand.Source.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 { s.draws++; return s.Source.Int63() }

// TestLawBetterPathHold: trigger (ii) moves only to a fresh qualified
// candidate whose share has beaten the active path's by 20 % for the whole
// hold, and any scan that finds no such candidate restarts the clock.
func TestLawBetterPathHold(t *testing.T) {
	const freshAge, hold = 100 * sim.Microsecond, sim.Millisecond
	path := func(share float64, qualified bool, at sim.Time) *pathState {
		return &pathState{allocation: allocation{share: share, qualified: qualified}, responded: true, lastRespAt: at}
	}
	now := sim.Time(10 * sim.Millisecond)
	paths := []*pathState{path(1e9, true, now), path(3e9, true, now), path(5e9, false, now), path(9e9, true, now-sim.Time(freshAge)-1)}
	since, to := betterPath(paths, 0, now, freshAge, hold, 0)
	if since != now || to != -1 {
		t.Fatalf("first sight of a better path: since %d to %d, want the clock started", since, to)
	}
	if s, to := betterPath(paths, 0, now+sim.Time(hold)-1, freshAge+sim.Duration(hold), hold, since); s != since || to != -1 {
		t.Errorf("before the hold expired: since %d to %d", s, to)
	}
	if s, to := betterPath(paths, 0, now+sim.Time(hold), freshAge+sim.Duration(hold), hold, since); s != 0 || to != 1 {
		t.Errorf("after the hold: since %d to %d, want a move to the fresh qualified path 1", s, to)
	}
	paths[1].share = 1.2e9 // exactly 20 % better is not better
	if s, to := betterPath(paths, 0, now, freshAge, hold, since); s != 0 || to != -1 {
		t.Errorf("a candidate at 1.2× the active share: since %d to %d, want the clock reset", s, to)
	}
}

// backlogged is a pair of the sender side with unbounded demand and no
// admission yet.
var backlogged = tokenPair{demand: -1}

// TestLawSenderTokens is Algorithm 1's sender side on a VF hose of 90 tokens
// (divisible by 2 and 3), the cases of Appendix E's Fig 21.
func TestLawSenderTokens(t *testing.T) {
	const hose = 90.0
	for _, tc := range []struct {
		name  string
		hose  float64
		pairs []tokenPair
		want  []float64 // nil: nothing assigned
	}{
		// Fig 21a, sender a1: three backlogged pairs, φ^a/3 each.
		{"equal split", hose, []tokenPair{backlogged, backlogged, backlogged}, []float64{30, 30, 30}},
		// Fig 21b: a pair with tiny demand ε is still boosted to the
		// equal share, and its spare (share − ε) goes to the other two.
		{"insufficient demand", hose, []tokenPair{{demand: 3}, backlogged, backlogged}, []float64{30, 30 + 27.0/2, 30 + 27.0/2}},
		// A pair its receiver admitted only 10 tokens frees the rest for
		// its sibling.
		{"receiver bounded", hose, []tokenPair{{demand: -1, admitted: 10}, backlogged}, []float64{10, 80}},
		{"no pairs", hose, nil, nil},
		{"no tokens", 0, []tokenPair{backlogged}, nil},
		// A pinned pair keeps its φ and the others split what is left.
		{"pinned", hose, []tokenPair{backlogged, {pinned: true, phi: 30}, backlogged}, []float64{30, 30, 30}},
		{"pinned take the hose", hose, []tokenPair{{pinned: true, phi: 90}, backlogged}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := assignTokens(nil, tc.hose, tc.pairs)
			if len(got) != len(tc.want) {
				t.Fatalf("assigned %v, want %v", got, tc.want)
			}
			total := 0.0
			for i, phi := range got {
				if total += phi; math.Abs(phi-tc.want[i]) > 1e-9 {
					t.Errorf("pair %d gets %v, want %v", i, phi, tc.want[i])
				}
			}
			if total > 2*tc.hose+1e-9 {
				t.Errorf("%v assigned, above 2φ^a", total)
			}
		})
	}
}

// TestLawReceiverTokens is Algorithm 1's receiver side on a hose of 90.
func TestLawReceiverTokens(t *testing.T) {
	const hose = 90.0
	for _, tc := range []struct {
		name string
		reqs []tokenRequest
		want []float64
	}{
		// Fig 21a, receiver a6: requests φ^a/3 (from a1) and φ^a (from a2).
		// The fair share is φ^a/2: a1's request fits, a2 gets the 2φ^a/3
		// left.
		{"max-min", []tokenRequest{{1, hose / 3}, {2, hose}}, []float64{unbound, 2 * hose / 3}},
		{"all fit", []tokenRequest{{1, 10}, {2, 20}}, []float64{unbound, unbound}},
		{"none", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := admitTokens(nil, hose, tc.reqs)
			if len(got) != len(tc.want) {
				t.Fatalf("admitted %v, want %v", got, tc.want)
			}
			for i, adm := range got {
				if adm != tc.want[i] && math.Abs(adm-tc.want[i]) > 1e-9 {
					t.Errorf("request %d admitted %v, want %v", i, adm, tc.want[i])
				}
			}
		})
	}
}

// TestLawReceiverTiesByID: requests that tie are served in pair-id order, so
// each pair's admission is the same bits whatever order the requests arrive
// in. On a hose of 7, a request of 0.2 fits and three tied requests of 5 and
// one of 9 share the 6.8 left: the shares differ in the last place (1.7,
// 1.7, 1.6999999999999997, 1.6999999999999997), so which tied pair gets
// which depends on the order they are served in. Every arrival order of the
// five must give every pair the same admission.
func TestLawReceiverTiesByID(t *testing.T) {
	reqs := []tokenRequest{{40, 5}, {7, 5}, {12, 5}, {3, 0.2}, {9, 9}}
	want := map[dataplane.VMPair]float64{}
	for i, adm := range admitTokens(nil, 7, reqs) {
		want[reqs[i].id] = adm
	}
	if want[7] == want[12] && want[7] == want[40] {
		t.Fatalf("tied requests all admitted %v: the case no longer tells orders apart", want[7])
	}
	perms := 0
	var permute func(k int)
	permute = func(k int) {
		if k == len(reqs) {
			perms++
			for i, adm := range admitTokens(nil, 7, reqs) {
				if adm != want[reqs[i].id] {
					t.Errorf("order %v: pair %d admitted %v, want %v", reqs, reqs[i].id, adm, want[reqs[i].id])
				}
			}
			return
		}
		for i := k; i < len(reqs); i++ {
			reqs[k], reqs[i] = reqs[i], reqs[k]
			permute(k + 1)
			reqs[k], reqs[i] = reqs[i], reqs[k]
		}
	}
	permute(0)
	if perms != 120 {
		t.Errorf("%d orders tried, want 5! = 120", perms)
	}
}

// TestLawReceiverFeasible, a property: what the receiver admits fits its
// hose — the fitting requests plus the bounded admissions — and a bounded
// admission is never above its request.
func TestLawReceiverFeasible(t *testing.T) {
	f := func(reqsRaw []uint16, hoseRaw uint16) bool {
		if len(reqsRaw) == 0 || len(reqsRaw) > 20 {
			return true
		}
		hose := float64(hoseRaw%1000) + 1
		reqs := make([]tokenRequest, len(reqsRaw))
		for i, r := range reqsRaw {
			reqs[i] = tokenRequest{dataplane.VMPair(i), float64(r % 500)}
		}
		total := 0.0
		for i, adm := range admitTokens(nil, hose, reqs) {
			if adm == unbound {
				total += reqs[i].requested
			} else if adm > reqs[i].requested+1e-9 {
				return false
			} else {
				total += adm
			}
		}
		return total <= hose+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLawSenderBound, a property: the sender assigns no negative token and
// at most the documented 2φ^a (the boost).
func TestLawSenderBound(t *testing.T) {
	f := func(demandsRaw []int16, hoseRaw uint16) bool {
		if len(demandsRaw) == 0 || len(demandsRaw) > 20 {
			return true
		}
		hose := float64(hoseRaw%1000) + 1
		pairs := make([]tokenPair, len(demandsRaw))
		for i, d := range demandsRaw {
			pairs[i].demand = math.Abs(float64(d))
			if d%3 == 0 {
				pairs[i].demand = -1
			}
		}
		total := 0.0
		for _, phi := range assignTokens(nil, hose, pairs) {
			if phi < -1e-9 {
				return false
			}
			total += phi
		}
		return total <= 2*hose+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLawTokensAllocateNothing: both sides of Algorithm 1 run every token
// period on every host, over the few pairs a VF has there; up to stackPairs
// of them are ordered on the stack, and the answer goes into the caller's
// slice.
func TestLawTokensAllocateNothing(t *testing.T) {
	pairs := make([]tokenPair, stackPairs)
	reqs := make([]tokenRequest, stackPairs)
	for i := range pairs {
		pairs[i] = tokenPair{demand: -1, admitted: float64(stackPairs - i)}
		reqs[i] = tokenRequest{dataplane.VMPair(i), float64(stackPairs - i)}
	}
	pairs[3].pinned, pairs[5].demand = true, 0.5
	out := make([]float64, 0, stackPairs)
	if a := testing.AllocsPerRun(100, func() { out = assignTokens(out[:0], 40, pairs) }); a != 0 {
		t.Errorf("assignTokens over %d pairs allocates %v times", len(pairs), a)
	}
	if a := testing.AllocsPerRun(100, func() { out = admitTokens(out[:0], 40, reqs) }); a != 0 {
		t.Errorf("admitTokens over %d requests allocates %v times", len(reqs), a)
	}
}

func BenchmarkTokenAssignment(b *testing.B) {
	pairs := make([]tokenPair, 64)
	reqs := make([]tokenRequest, 64)
	for i := range pairs {
		pairs[i].demand = float64(i % 7)
		if i%3 == 0 {
			pairs[i].demand = -1
		}
		reqs[i] = tokenRequest{dataplane.VMPair(i), float64(i % 7)}
	}
	out := make([]float64, 0, len(pairs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = assignTokens(out[:0], 1000, pairs)
		out = admitTokens(out[:0], 1000, reqs)
	}
}
