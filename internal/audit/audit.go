// Package audit implements the online predictability auditor: it watches a
// running fabric through per-tick samples and flight-recorder events and
// checks, per tenant and per link, the paper's predictability contract —
// minimum-bandwidth guarantees (Eqn 1), work conservation, the
// admission-derived queue bound, and μFAB-C register accounting. Each
// sustained violation becomes a structured Finding; faults injected by
// internal/chaos open "excused" windows so expected degradation is
// distinguished from genuine bugs.
//
// The auditor is an observer only: it allocates its own state, never
// mutates samples, and never feeds back into the simulation, so audited
// runs stay bit-identical to unaudited ones.
//
// Config holds only what some caller sets (the log, two hold times, the
// per-check switches); the tolerances every run has always used are the
// package's constants.
package audit

import (
	"fmt"

	"ufab/internal/telemetry"
)

// Config is what a caller may adjust about an auditor; the zero value means
// "defaults". The tolerances nobody adjusts are the constants below.
type Config struct {
	// Log receives findings. Several auditors (one per audited fabric of a
	// run) may share one Log.
	Log *Log

	// HoldTicks is how many consecutive violating ticks a min-BW, queue or
	// negative-register streak needs before it becomes a finding
	// (default 4).
	HoldTicks int
	// AcctHoldPS is how long a Φ_l drift must persist (default: the check
	// window; vfabric raises it to the core's cleanup lag, the declared
	// staleness bound).
	AcctHoldPS int64

	// Per-check switches. vfabric disables the queue bound for μFAB′
	// fabrics (DisableTwoStage removes the burst bound by design). The
	// ledger bound only runs on links whose samples carry a committed
	// subscription (HasLedger), i.e. when an admission ledger is wired in.
	disableMinBW            bool
	disableWorkConservation bool
	DisableQueueBound       bool
	disableAccounting       bool
}

// The auditor's tolerances; time quantities are simulated picoseconds (the
// flight recorder's unit).
const (
	// minBWTolerance is the fractional slack on the hose guarantee: a
	// fully backlogged VF violates when its windowed rate stays below
	// (1-minBWTolerance)·guarantee.
	minBWTolerance = 0.10
	// checkWindowPS is the rate-averaging window (2 ms).
	checkWindowPS int64 = 2_000_000_000
	// warmupPS exempts a subject's first moments: a VF, pair or link is
	// checked only after it has existed this long (3 ms).
	warmupPS int64 = 3_000_000_000

	// wcSpareFrac: work conservation is checked only when every link of a
	// backlogged pair's active path has spare > wcSpareFrac·target — small
	// headroom is indistinguishable from the 5% η-headroom and estimator
	// noise.
	wcSpareFrac = 0.25
	// wcGainFrac: the pair violates when its rate stays under
	// guarantee + wcGainFrac·spare.
	wcGainFrac = 0.10
	// wcHoldTicks is the persistence requirement for work-conservation
	// findings (convergence transients are longer than guarantee
	// transients).
	wcHoldTicks = 8

	// queueFloorBytes + queueFactorW·W_l bounds a core link's queue: W_l is
	// the admitted sending-window sum, the two-stage admission's burst
	// bound.
	queueFloorBytes = 64 << 10
	queueFactorW    = 1.5

	// acctTolerance and acctAbsTokens bound the Φ_l register against the
	// live VM-pair token sum.
	acctTolerance = 0.10
	acctAbsTokens = 4.0

	// faultExcusePS is the excused window opened after each applied chaos
	// fault event (5 ms).
	faultExcusePS int64 = 5_000_000_000
	// maxContextEvents caps the flight-recorder context attached to one
	// finding.
	maxContextEvents = 12
)

func (c *Config) setDefaults() {
	if c.HoldTicks == 0 {
		c.HoldTicks = 4
	}
	if c.AcctHoldPS == 0 {
		c.AcctHoldPS = checkWindowPS
	}
}

// LinkSample is one link's per-tick observation.
type LinkSample struct {
	// Entity is the link's precomputed dotted name ("link.<src>-<dst>").
	Entity string
	// TargetBps is the target capacity C̄_l = η·C_l at the link's current
	// effective (possibly degraded) line rate.
	TargetBps float64
	// TxBytes is the cumulative transmitted byte count.
	TxBytes uint64
	// QueueBytes is the instantaneous egress queue depth.
	QueueBytes int64
	// HasCore marks links whose source runs a μFAB-C agent (register
	// checks apply only there).
	HasCore bool
	// PhiTokens/WindowBytes are the Φ_l and W_l registers.
	PhiTokens   float64
	WindowBytes int64
	// LivePhiCand is the token sum of live non-idle pairs counting the
	// link on any candidate path (the register's upper reference);
	// LivePhiActive counts active paths only (the lower reference).
	LivePhiCand   float64
	LivePhiActive float64
	// CommittedTokens is the admission ledger's committed subscription on
	// this link, in Φ tokens; valid only when HasLedger is set. Realized
	// Φ_l must never persistently exceed it once every tenant routes
	// through the admission controller.
	CommittedTokens float64
	HasLedger       bool
	// Faulty marks links currently failed, endpoint-failed or degraded —
	// the invariants don't apply to a dead link.
	Faulty bool
}

// PairSample is one VM-pair's per-tick observation.
type PairSample struct {
	VM int64
	VF int32
	// PhiBps is the pair's current guarantee (EffectivePhi·BU).
	PhiBps float64
	// Backlogged reports unmet demand beyond the bytes in flight.
	Backlogged bool
	// Delivered is the cumulative acknowledged byte count.
	Delivered int64
	// Migrations is the pair's cumulative migration count.
	Migrations int
	// Links indexes Sample.Links for the active path.
	Links []int32
	// Faulty marks pairs whose active path crosses a faulty link.
	Faulty bool
}

// VFSample is one tenant's per-tick observation.
type VFSample struct {
	ID           int32
	GuaranteeBps float64
}

// Sample is one auditor tick: the fabric's state at time T. The caller may
// reuse the sample (and its slices) across ticks; the auditor copies what
// it retains.
type Sample struct {
	// T is simulated time in picoseconds.
	T     int64
	Links []LinkSample
	// Pairs holds live pairs in creation order; VFs is sorted by ID.
	Pairs []PairSample
	VFs   []VFSample
}

// streak merges consecutive violating ticks of one check on one subject.
type streak struct {
	active     bool
	from, last int64
	ticks      int
	obs, bound float64
}

// hit extends the streak with a violating tick; lowerWorse picks whether
// smaller observations are worse (rates) or larger ones (queues, drift).
func (s *streak) hit(t int64, obs, bound float64, lowerWorse bool) {
	if !s.active {
		*s = streak{active: true, from: t, last: t, ticks: 1, obs: obs, bound: bound}
		return
	}
	s.last = t
	s.ticks++
	if lowerWorse == (obs < s.obs) {
		s.obs = obs
		s.bound = bound
	}
}

type excuseWindow struct {
	from, to int64
	reason   string
}

type pairState struct {
	id        int64
	vf        int32
	firstSeen int64
	backSince int64 // -1 while not backlogged
	lastMigr  int
	migrAt    int64
	hist      series
	wc        streak
	// per-tick derived values
	rate    float64
	rateOK  bool
	covered bool
}

type vfState struct {
	id        int32
	firstSeen int64
	minbw     streak
}

type linkState struct {
	entity    string
	firstSeen int64
	tx        series
	rate      float64
	rateOK    bool
	queue     streak
	acctNeg   streak
	acctOver  streak
	acctUnder streak
	ledger    streak
}

type vfAccum struct {
	n       int
	rateBps float64
	covered bool
}

const contextRingCap = 4096

// Auditor evaluates the predictability invariants over a stream of Ticks
// from one fabric. Create with New, feed Tick per sampling interval, wire
// ObserveEvent into the fabric's flight recorder, and read results from
// the shared Log.
type Auditor struct {
	cfg Config
	log *Log

	lastT int64

	links     []*linkState
	pairs     map[int64]*pairState
	pairOrder []int64
	vfs       map[int32]*vfState
	vfOrder   []int32
	accum     map[int32]*vfAccum

	excuses []excuseWindow

	ctx      []telemetry.Event
	ctxStart int
}

// New creates an auditor reporting into cfg.Log (a fresh Log is created
// when nil; read it back via Log()).
func New(cfg Config) *Auditor {
	cfg.setDefaults()
	if cfg.Log == nil {
		cfg.Log = &Log{}
	}
	a := &Auditor{
		cfg:   cfg,
		log:   cfg.Log,
		lastT: -1,
		pairs: make(map[int64]*pairState),
		vfs:   make(map[int32]*vfState),
		accum: make(map[int32]*vfAccum),
	}
	a.log.attach(a)
	return a
}

// Log returns the findings sink this auditor reports into.
func (a *Auditor) Log() *Log { return a.log }

// MissedEvents tells the auditor that n flight-recorder events were evicted
// before it could observe them. They count on the Log as dropped: an audit
// that did not see the whole stream — the faults that excuse findings among
// what it missed, possibly — must fail the gates, not pass them quietly.
func (a *Auditor) MissedEvents(n uint64) { a.log.dropped += int(n) }

// Observes reports whether ObserveEvent reads events of kind k: faults, and
// the migration/freeze/tenant/drop context kept for findings. It ignores
// every other kind, so a feed may skip those unread (telemetry.Merge).
func Observes(k telemetry.EventKind) bool {
	switch k {
	case telemetry.EvFault, telemetry.EvMigration, telemetry.EvFreeze, telemetry.EvTenant, telemetry.EvDrop:
		return true
	}
	return false
}

// ObserveEvent ingests one flight-recorder event: applied chaos faults
// open excused windows, and fault/migration/freeze/tenant/drop events are
// retained as root-cause context for findings. Wire it with
// Recorder.Subscribe.
func (a *Auditor) ObserveEvent(ev telemetry.Event) {
	if !Observes(ev.Kind) {
		return
	}
	if ev.Kind == telemetry.EvFault && ev.A == 1 {
		a.addExcuse(ev.T, ev.T+faultExcusePS, "fault:"+ev.Note)
	}
	if len(a.ctx) < contextRingCap {
		a.ctx = append(a.ctx, ev)
		return
	}
	a.ctx[a.ctxStart] = ev
	a.ctxStart++
	if a.ctxStart == contextRingCap {
		a.ctxStart = 0
	}
}

// addExcuse opens (or extends) an excused window.
func (a *Auditor) addExcuse(from, to int64, reason string) {
	if n := len(a.excuses); n > 0 {
		last := &a.excuses[n-1]
		if last.reason == reason && from <= last.to {
			if to > last.to {
				last.to = to
			}
			return
		}
	}
	a.excuses = append(a.excuses, excuseWindow{from: from, to: to, reason: reason})
}

// excuseFor returns the first declared window overlapping [from, to].
func (a *Auditor) excuseFor(from, to int64) (string, bool) {
	for i := range a.excuses {
		w := &a.excuses[i]
		if w.from <= to && from <= w.to {
			return w.reason, true
		}
	}
	return "", false
}

// contextFor collects retained flight-recorder events around the interval.
func (a *Auditor) contextFor(from, to int64) []telemetry.Event {
	const pad = checkWindowPS
	var out []telemetry.Event
	n := len(a.ctx)
	for i := 0; i < n && len(out) < maxContextEvents; i++ {
		ev := a.ctx[(a.ctxStart+i)%n]
		if ev.T >= from-pad && ev.T <= to+pad {
			out = append(out, ev)
		}
	}
	return out
}

// pairFor returns (creating if needed) the pair's persistent state.
func (a *Auditor) pairFor(p *PairSample, t int64) *pairState {
	st := a.pairs[p.VM]
	if st == nil {
		st = &pairState{id: p.VM, vf: p.VF, firstSeen: t, backSince: -1, lastMigr: p.Migrations}
		a.pairs[p.VM] = st
		a.pairOrder = append(a.pairOrder, p.VM)
	}
	return st
}

func (a *Auditor) vfFor(id int32, t int64) *vfState {
	st := a.vfs[id]
	if st == nil {
		st = &vfState{id: id, firstSeen: t}
		a.vfs[id] = st
		a.vfOrder = append(a.vfOrder, id)
	}
	return st
}

// Tick evaluates every invariant against one sample. Duplicate timestamps
// (an explicit flush at the instant the sampler also fired) are ignored.
func (a *Auditor) Tick(s *Sample) {
	t := s.T
	if t <= a.lastT {
		return
	}
	a.lastT = t
	cfg := &a.cfg
	const W = checkWindowPS

	// Link rate histories.
	for len(a.links) < len(s.Links) {
		a.links = append(a.links, nil)
	}
	for i := range s.Links {
		l := &s.Links[i]
		ls := a.links[i]
		if ls == nil {
			ls = &linkState{entity: l.Entity, firstSeen: t}
			a.links[i] = ls
		}
		ls.tx.add(t, float64(l.TxBytes), W)
		ls.rate, ls.rateOK = ls.tx.rateBps(t, W)
	}

	// Pair histories and per-VF aggregation.
	for _, acc := range a.accum {
		acc.n = 0
		acc.rateBps = 0
		acc.covered = true
	}
	for i := range s.Pairs {
		p := &s.Pairs[i]
		st := a.pairFor(p, t)
		if p.Backlogged && !p.Faulty {
			if st.backSince < 0 {
				st.backSince = t
			}
		} else {
			st.backSince = -1
		}
		if p.Migrations != st.lastMigr {
			st.lastMigr = p.Migrations
			st.migrAt = t
		}
		st.hist.add(t, float64(p.Delivered), W)
		st.rate, st.rateOK = st.hist.rateBps(t, W)
		st.covered = st.backSince >= 0 && st.backSince <= t-W &&
			t-st.firstSeen >= warmupPS && st.rateOK
		acc := a.accum[p.VF]
		if acc == nil {
			acc = &vfAccum{covered: true}
			a.accum[p.VF] = acc
		}
		acc.n++
		if st.covered {
			acc.rateBps += st.rate
		} else {
			acc.covered = false
		}
	}

	// (1) Minimum-bandwidth guarantee, per VF.
	for i := range s.VFs {
		v := &s.VFs[i]
		vst := a.vfFor(v.ID, t)
		acc := a.accum[v.ID]
		eligible := !cfg.disableMinBW && v.GuaranteeBps > 0 &&
			acc != nil && acc.n > 0 && acc.covered &&
			t-vst.firstSeen >= warmupPS
		bound := (1 - minBWTolerance) * v.GuaranteeBps
		if eligible && acc.rateBps < bound {
			vst.minbw.hit(t, acc.rateBps, bound, true)
		} else {
			a.closeVF(vst)
		}
	}

	// (2) Work conservation, per backlogged pair.
	for i := range s.Pairs {
		p := &s.Pairs[i]
		st := a.pairs[p.VM]
		violated := false
		// A pair that just migrated re-enters the Scenario-2 ramp, so
		// its rate legitimately dips below spare capacity; grant it the
		// warmup again before holding it to work conservation.
		if !cfg.disableWorkConservation && st.covered &&
			(st.migrAt == 0 || t-st.migrAt >= warmupPS) {
			spare, minTarget, usable := maxFloat, maxFloat, len(p.Links) > 0
			for _, li := range p.Links {
				if int(li) >= len(a.links) {
					usable = false
					break
				}
				l := &s.Links[li]
				ls := a.links[li]
				if l.Faulty || !ls.rateOK {
					usable = false
					break
				}
				if sp := l.TargetBps - ls.rate; sp < spare {
					spare = sp
				}
				if l.TargetBps < minTarget {
					minTarget = l.TargetBps
				}
			}
			if usable && spare > wcSpareFrac*minTarget {
				if bound := p.PhiBps + wcGainFrac*spare; st.rate < bound {
					st.wc.hit(t, st.rate, bound, true)
					violated = true
				}
			}
		}
		if !violated {
			a.closePair(st)
		}
	}

	// (3) Queue bound and (4) register accounting, per core link.
	for i := range s.Links {
		l := &s.Links[i]
		ls := a.links[i]
		if !l.HasCore || l.Faulty || t-ls.firstSeen < warmupPS {
			a.closeLink(ls)
			continue
		}
		if qBound := queueFloorBytes + queueFactorW*float64(l.WindowBytes); !cfg.DisableQueueBound && float64(l.QueueBytes) > qBound {
			ls.queue.hit(t, float64(l.QueueBytes), qBound, false)
		} else {
			a.closeLinkStreak(ls, &ls.queue, queueBoundViolation, "bytes", cfg.HoldTicks, 0)
		}
		// (5) Ledger bound: realized Φ_l never exceeds the admission
		// ledger's committed subscription. Departed tenants' registers
		// drain lazily (finish probes + core cleanup), so the same
		// AcctHoldPS staleness bound applies before a drift becomes a
		// finding.
		if lBound := l.CommittedTokens*(1+acctTolerance) + acctAbsTokens; l.HasLedger && l.PhiTokens > lBound {
			ls.ledger.hit(t, l.PhiTokens, lBound, false)
		} else {
			a.closeLinkStreak(ls, &ls.ledger, ledgerBoundViolation, "tokens", cfg.HoldTicks, cfg.AcctHoldPS)
		}
		if cfg.disableAccounting {
			continue
		}
		if l.PhiTokens < -1e-3 || l.WindowBytes < 0 {
			obs := l.PhiTokens
			if l.WindowBytes < 0 {
				obs = float64(l.WindowBytes)
			}
			ls.acctNeg.hit(t, obs, 0, true)
		} else {
			a.closeLinkStreak(ls, &ls.acctNeg, accountingViolation, "tokens", 1, 0)
		}
		if over := l.LivePhiCand*(1+acctTolerance) + acctAbsTokens; l.PhiTokens > over {
			ls.acctOver.hit(t, l.PhiTokens, over, false)
		} else {
			a.closeLinkStreak(ls, &ls.acctOver, accountingViolation, "tokens", cfg.HoldTicks, cfg.AcctHoldPS)
		}
		if under := l.LivePhiActive*(1-acctTolerance) - acctAbsTokens; l.PhiTokens < under {
			ls.acctUnder.hit(t, l.PhiTokens, under, true)
		} else {
			a.closeLinkStreak(ls, &ls.acctUnder, accountingViolation, "tokens", cfg.HoldTicks, cfg.AcctHoldPS)
		}
	}
}

const maxFloat = 1.7976931348623157e308

// closeVF ends a VF's min-BW streak, emitting it when it met the
// persistence thresholds.
func (a *Auditor) closeVF(vst *vfState) {
	a.emit(&vst.minbw, MinBWViolation, vst.id, fmt.Sprintf("vf.%d", vst.id),
		"bps", a.cfg.HoldTicks, 0)
}

// closePair ends a pair's work-conservation streak.
func (a *Auditor) closePair(st *pairState) {
	a.emit(&st.wc, workConservationViolation, st.vf,
		fmt.Sprintf("vf.%d.pair.%d", st.vf, st.id), "bps", wcHoldTicks, 0)
}

// closeLink ends every streak of a link.
func (a *Auditor) closeLink(ls *linkState) {
	cfg := &a.cfg
	a.closeLinkStreak(ls, &ls.queue, queueBoundViolation, "bytes", cfg.HoldTicks, 0)
	a.closeLinkStreak(ls, &ls.acctNeg, accountingViolation, "tokens", 1, 0)
	a.closeLinkStreak(ls, &ls.acctOver, accountingViolation, "tokens", cfg.HoldTicks, cfg.AcctHoldPS)
	a.closeLinkStreak(ls, &ls.acctUnder, accountingViolation, "tokens", cfg.HoldTicks, cfg.AcctHoldPS)
	a.closeLinkStreak(ls, &ls.ledger, ledgerBoundViolation, "tokens", cfg.HoldTicks, cfg.AcctHoldPS)
}

func (a *Auditor) closeLinkStreak(ls *linkState, st *streak, kind Kind, unit string, minTicks int, minDur int64) {
	a.emit(st, kind, -1, ls.entity, unit, minTicks, minDur)
}

// emit closes a streak: below the persistence thresholds it is dropped as
// noise, otherwise it becomes a finding (excused when overlapping a
// declared fault window).
func (a *Auditor) emit(st *streak, kind Kind, vf int32, entity, unit string, minTicks int, minDur int64) {
	if !st.active {
		return
	}
	defer func() { *st = streak{} }()
	if st.ticks < minTicks || st.last-st.from < minDur {
		return
	}
	f := Finding{
		Kind:     kind,
		FromPS:   st.from,
		ToPS:     st.last,
		Ticks:    st.ticks,
		VF:       vf,
		Entity:   entity,
		Observed: st.obs,
		Bound:    st.bound,
		Unit:     unit,
	}
	if reason, ok := a.excuseFor(f.FromPS, f.ToPS); ok {
		f.Excused = true
		f.Excuse = reason
	}
	f.Context = a.contextFor(f.FromPS, f.ToPS)
	a.log.add(f)
}

// Flush closes every open streak at the last tick's time. The Log calls it
// when findings are read; it is safe to call repeatedly.
func (a *Auditor) Flush() {
	for _, id := range a.vfOrder {
		a.closeVF(a.vfs[id])
	}
	for _, id := range a.pairOrder {
		a.closePair(a.pairs[id])
	}
	for _, ls := range a.links {
		if ls != nil {
			a.closeLink(ls)
		}
	}
}

// ---- windowed-rate history ------------------------------------------------

type histPt struct {
	t int64
	v float64
}

// series retains just enough (t, cumulative-value) points to answer
// windowed-rate queries.
type series struct {
	pts []histPt
}

// add appends the current cumulative value and prunes points no longer
// needed for a window-sized lookback (keeping one boundary point).
func (s *series) add(t int64, v float64, window int64) {
	s.pts = append(s.pts, histPt{t: t, v: v})
	cut := t - window
	// Find the last point at or before the cutoff; everything older is
	// unreachable by future queries (t only grows).
	idx := -1
	for i := len(s.pts) - 1; i >= 0; i-- {
		if s.pts[i].t <= cut {
			idx = i
			break
		}
	}
	if idx > 0 {
		s.pts = append(s.pts[:0], s.pts[idx:]...)
	}
}

// rateBps returns the average rate in bits/s over roughly [t-window, t],
// and false while the history does not yet span the window.
func (s *series) rateBps(t, window int64) (float64, bool) {
	if len(s.pts) < 2 {
		return 0, false
	}
	cut := t - window
	base := s.pts[0]
	if base.t > cut {
		return 0, false
	}
	for i := 1; i < len(s.pts) && s.pts[i].t <= cut; i++ {
		base = s.pts[i]
	}
	cur := s.pts[len(s.pts)-1]
	dt := cur.t - base.t
	if dt <= 0 {
		return 0, false
	}
	return (cur.v - base.v) * 8e12 / float64(dt), true
}
