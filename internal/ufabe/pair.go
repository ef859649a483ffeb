package ufabe

import (
	"math"

	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// pathState tracks one candidate underlay path of a VM-pair.
type pathState struct {
	id      uint16
	route   topo.Path
	baseRTT sim.Duration

	// Last probe response and when it arrived.
	lastResp   *probe.Packet
	lastRespAt sim.Time
	// srtt is the smoothed probe round-trip time on this path,
	// including queueing; probe-loss timeouts scale with it so heavy
	// standing queues (many pairs at the MTU window floor) do not look
	// like losses.
	srtt sim.Duration

	// Derived per-response quantities.
	share     float64 // r_{a→b}: proportional guarantee share, bits/s (Eqn 1)
	window    int64   // w_{a→b}: utilization-based window, bytes (Eqn 3)
	qualified bool    // C̄_l ≥ Φ_l·B_u on every link
	// headPhi is the largest Φ_l·B_u/C̄_l subscription ratio, for the
	// minimum-subscription path preference.
	subscription float64

	// inflight is the unacknowledged bytes this pair has on this path.
	inflight int64

	// Probe bookkeeping.
	probeSeq         uint32
	respSeq          uint32 // highest seq answered
	probeOutstanding bool
	probeSentAt      sim.Time
	lostProbes       int
}

// fresh reports whether the path has a response newer than age.
func (ps *pathState) fresh(now sim.Time, age sim.Duration) bool {
	return ps.lastResp != nil && now-ps.lastRespAt <= age
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

// Pair is the sender-side state of one VM-pair (one row of the FPGA
// Context Table, §4.1).
type Pair struct {
	ID     dataplane.VMPair
	VF     int32
	Src    topo.NodeID
	Dst    topo.NodeID
	Demand Demand

	agent *Agent

	// Tokens. phi is the sender-assigned token (GP-managed or static);
	// peerPhi the last receiver admission (0 = unbound/unknown).
	// phiManaged pairs are excluded from Guarantee Partitioning — an
	// external controller (e.g. the Appendix-F multipath token split)
	// owns their φ.
	phi        float64
	peerPhi    float64
	phiManaged bool

	paths  []*pathState
	active int // index into paths

	// Window state.
	stage      admissionStage
	rampWindow float64 // w′ in bytes during stageRamp
	lastRampAt sim.Time
	inflight   int64
	seq        uint64
	// dataStartAt delays data after a reorder-free migration.
	dataStartAt sim.Time

	// Self-clocked probing (§4.1): next probe once L_w bytes have been
	// sent since the previous response arrived.
	bytesSinceResp int64
	wantProbe      bool

	// Migration state (§3.5).
	violationStreak int
	lastViolationAt sim.Time
	// deliveredAtCheck snapshots Delivered at the last violation check
	// so the achieved rate over the last RTT-spaced interval is known.
	deliveredAtCheck int64
	betterSince      sim.Time // when a persistently better path was first seen
	migrating        bool
	// stopScan stops the pair's periodic candidate scan (nil for a
	// single-path pair, which has none); RemovePair calls it.
	stopScan func()

	// Idle/finish state.
	idle      bool
	idleSince sim.Time

	// Loss recovery: lastProgress is the last send or ack; an RTO with
	// no progress assumes the inflight bytes were dropped and requeues
	// them.
	lastProgress sim.Time
	rtoArmed     bool

	// Measurements.
	Delivered  int64         // bytes acknowledged end-to-end
	SentBytes  int64         // bytes handed to the wire
	RTT        stats.Samples // per-ack network RTT in microseconds
	Migrations int           // migration count
	Losses     int           // RTO-recovered loss episodes
	// txSinceToken measures demand for Guarantee Partitioning.
	txSinceToken int64
}

// Phi returns the pair's current sender token.
func (p *Pair) Phi() float64 { return p.phi }

// SetPhi pins the pair's sender token and excludes the pair from the VF's
// Guarantee Partitioning loop; the Appendix-F multipath token split uses
// this to own the per-path budget.
func (p *Pair) SetPhi(phi float64) {
	p.phi = phi
	p.phiManaged = true
}

// EffectivePhi returns min(sender token, receiver admission) — the token
// used in probes and guarantees.
func (p *Pair) EffectivePhi() float64 {
	if p.peerPhi > 0 && p.peerPhi < p.phi {
		return p.peerPhi
	}
	return p.phi
}

// Guarantee returns the pair's current minimum-bandwidth guarantee in
// bits/s.
func (p *Pair) Guarantee() float64 { return p.EffectivePhi() * p.agent.cfg.BU }

// ActivePath returns the route currently carrying data.
func (p *Pair) ActivePath() topo.Path { return p.paths[p.active].route }

// ActivePathID returns the active candidate index.
func (p *Pair) ActivePathID() int { return p.active }

// Window returns the current sending window in bytes.
func (p *Pair) Window() int64 {
	ps := p.paths[p.active]
	switch p.stage {
	case stageRamp:
		w := int64(p.rampWindow)
		if ps.lastResp != nil && w > ps.window {
			return ps.window
		}
		return w
	default:
		return ps.window
	}
}

// Inflight returns the bytes in flight.
func (p *Pair) Inflight() int64 { return p.inflight }

// PathCount returns how many candidate paths the pair probes.
func (p *Pair) PathCount() int { return len(p.paths) }

// Route returns candidate path i's route.
func (p *Pair) Route(i int) topo.Path { return p.paths[i].route }

// Idle reports whether the pair has gone idle (no pending demand for the
// idle timeout) and released its admission.
func (p *Pair) Idle() bool { return p.idle }

// computeFromResponse derives {r, w, qualified, subscription} for a path
// from a probe response, implementing Eqns (1) and (3).
func (p *Pair) computeFromResponse(ps *pathState, resp *probe.Packet) {
	cfg := &p.agent.cfg
	phi := p.EffectivePhi()
	T := ps.baseRTT.Seconds()
	share := math.Inf(1)
	window := math.Inf(1)
	qualified := true
	subscription := 0.0
	for _, h := range resp.Hops {
		target := cfg.TargetUtilization * h.Capacity // C̄_l
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
		denomBytes := h.TxRate*T/8 + float64(h.Queue)
		var wl float64
		if denomBytes <= 0 {
			wl = bdpBytes
		} else {
			totalW := float64(h.TotalWindow)
			if totalW < float64(p.Window()) {
				totalW = float64(p.Window())
			}
			wl = phi / phiTotal * totalW * bdpBytes / denomBytes
			if wl > bdpBytes {
				wl = bdpBytes
			}
		}
		if wl < window {
			window = wl
		}
		// Qualification: the total subscription must fit under the
		// target capacity (Φ_l already includes our φ on this path).
		sub := phiTotal * cfg.BU / target
		if sub > subscription {
			subscription = sub
		}
		if sub > 1 {
			qualified = false
		}
	}
	ps.share = share
	ps.qualified = qualified
	ps.subscription = subscription
	minWindow := int64(cfg.MTU) // one MTU keeps the ack clock alive
	if w := int64(window); w > minWindow {
		ps.window = w
	} else {
		ps.window = minWindow
	}
	ps.lastResp = resp
	if a := p.agent; a.rec != nil {
		a.rec.Record(telemetry.Event{T: int64(a.eng.Now()), Kind: telemetry.EvWindow,
			Entity: a.entity, A: int64(p.ID), B: ps.window, V: ps.share,
			Trace: telemetry.SpanID(telemetry.TraceProbe, int64(p.ID), int64(ps.id), int64(resp.Seq)), Span: 4})
	}
}

// enterRamp starts two-stage admission: Scenario-1 (new pair, bootstrap
// window φ·B_u·T) or Scenario-2 (reactivated pair, window r·T).
func (p *Pair) enterRamp(now sim.Time, scenario2 bool) {
	if p.agent.cfg.DisableTwoStage {
		// μFAB′: no burst bound; start from the full Eqn-3 window (or
		// BDP before the first response).
		p.stage = stageSteady
		ps := p.paths[p.active]
		if ps.lastResp == nil {
			bdp := p.agent.graph.MinCapacity(ps.route) * ps.baseRTT.Seconds() / 8
			ps.window = int64(bdp)
		}
		return
	}
	p.stage = stageRamp
	ps := p.paths[p.active]
	cfg := &p.agent.cfg
	// Scenario-1 bootstraps at the guarantee (φ·B_u·T); Scenario-2 at
	// the last proportional share r·T, never below the guarantee — a
	// reactivating pair must reach its minimum bandwidth immediately,
	// not re-earn it (§3.4).
	p.rampWindow = p.EffectivePhi() * cfg.BU * ps.baseRTT.Seconds() / 8
	if scenario2 && ps.share > 0 {
		if w := ps.share * ps.baseRTT.Seconds() / 8; w > p.rampWindow {
			p.rampWindow = w
		}
	}
	if min := float64(cfg.MTU); p.rampWindow < min {
		p.rampWindow = min
	}
	p.lastRampAt = now
	p.recordStage(now, "ramp")
}

// recordStage traces a two-stage-admission transition (no-op without a
// recorder).
func (p *Pair) recordStage(now sim.Time, note string) {
	if a := p.agent; a.rec != nil {
		a.rec.Record(telemetry.Event{T: int64(now), Kind: telemetry.EvStage,
			Entity: a.entity, A: int64(p.ID), Note: note})
	}
}

// advanceRamp additively increases the ramp window by the proportional
// share per RTT and switches to steady state once it crosses the Eqn-3
// window (§3.4).
func (p *Pair) advanceRamp(now sim.Time) {
	if p.stage != stageRamp {
		return
	}
	ps := p.paths[p.active]
	if ps.lastResp == nil {
		return
	}
	elapsed := now - p.lastRampAt
	if elapsed <= 0 {
		return
	}
	if elapsed > ps.baseRTT {
		elapsed = ps.baseRTT
	}
	p.rampWindow += ps.share * elapsed.Seconds() / 8
	p.lastRampAt = now
	if int64(p.rampWindow) >= ps.window {
		p.stage = stageSteady
		p.recordStage(now, "steady")
	}
}
