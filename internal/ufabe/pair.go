package ufabe

import (
	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// pathState tracks one candidate underlay path of a VM-pair.
type pathState struct {
	id    uint16
	route topo.Path
	// back is route reversed, computed once: every data packet and probe on
	// this path carries it as its Return, so the far edge's ack or response
	// reverses nothing.
	back    topo.Path
	baseRTT sim.Duration

	// Whether the path has a probe response, and when the last one arrived.
	// responded is false until the first one, and again after a failure
	// notice voids the path's telemetry.
	responded  bool
	lastRespAt sim.Time
	// srtt is the smoothed probe round-trip time on this path,
	// including queueing; probe-loss timeouts scale with it so heavy
	// standing queues (many pairs at the MTU window floor) do not look
	// like losses.
	srtt sim.Duration

	// What the last response said (law.go).
	allocation

	// inflight is the unacknowledged bytes this pair has on this path.
	inflight int64

	probeSeq uint32
	respSeq  uint32 // highest seq answered
}

// Pair is the sender-side state of one VM-pair (one row of the FPGA
// Context Table, §4.1).
type Pair struct {
	ID     dataplane.VMPair
	VF     int32
	Src    topo.NodeID
	Dst    topo.NodeID
	Demand Demand

	agent *Agent
	vf    *vfState

	// Tokens. phi is the sender-assigned token (GP-managed or static);
	// peerPhi the last receiver admission (0 = unbound/unknown).
	// phiManaged pairs are excluded from Guarantee Partitioning: whoever
	// called SetPhi owns their φ.
	phi        float64
	peerPhi    float64
	phiManaged bool

	paths  []*pathState
	active int // index into paths

	// Window state: two-stage admission (law.go) over the active path's
	// Eqn-3 window.
	ramp
	inflight int64
	seq      uint64
	// dataStartAt delays data after a reorder-free migration.
	dataStartAt sim.Time

	// Self-clocked probing (§4.1): next probe once L_w bytes have been
	// sent since the previous response arrived.
	bytesSinceResp int64
	wantProbe      bool

	// Migration state (§3.5).
	viol        violation
	betterSince sim.Time // when a persistently better path was first seen
	migrating   bool
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
	Delivered int64 // bytes acknowledged end-to-end
	SentBytes int64 // bytes handed to the wire
	// RTT collects every ack's network RTT in microseconds once a reader
	// attaches one; nil records nothing.
	RTT        *stats.Samples
	Migrations int // migration count
	Losses     int // RTO-recovered loss episodes
	// txSinceToken measures demand for Guarantee Partitioning.
	txSinceToken int64
}

// Phi returns the pair's current sender token.
func (p *Pair) Phi() float64 { return p.phi }

// SetPhi pins the pair's sender token and excludes the pair from the VF's
// Guarantee Partitioning loop. The auditor's sabotage tests use it to starve
// a pair below its guarantee.
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
func (p *Pair) Guarantee() float64 { return p.EffectivePhi() * BU }

// ActivePath returns the route currently carrying data.
func (p *Pair) ActivePath() topo.Path { return p.paths[p.active].route }

// ActivePathID returns the active candidate index.
func (p *Pair) ActivePathID() int { return p.active }

// Window returns the current sending window in bytes.
func (p *Pair) Window() int64 {
	ps := p.paths[p.active]
	return p.ramp.admitted(ps.allocation, ps.responded)
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

// applyResponse stores what a response says about its path: the law's
// allocation for the pair's current token and window. The path keeps
// nothing of resp itself — it is the agent's decode scratch and is
// overwritten by the next one.
func (p *Pair) applyResponse(ps *pathState, resp *probe.Packet) {
	ps.allocation = allocate(p.EffectivePhi(), p.Window(), ps.baseRTT, resp.Hops)
	ps.responded = true
	if a := p.agent; a.rec != nil {
		a.rec.Record(telemetry.Event{T: int64(a.eng.Now()), Kind: telemetry.EvWindow,
			Entity: a.entity, A: int64(p.ID), B: ps.window, V: ps.share,
			Trace: telemetry.SpanID(telemetry.TraceProbe, int64(p.ID), int64(ps.id), int64(resp.Seq)), Span: 4})
	}
}

// enterRamp starts two-stage admission on the active path: Scenario-1 (new
// pair or fresh path) or Scenario-2 (reactivated pair).
func (p *Pair) enterRamp(now sim.Time, scenario2 bool) {
	ps := p.paths[p.active]
	if p.agent.cfg.DisableTwoStage {
		p.stage = stageSteady
		if !ps.responded {
			ps.window = unramped(p.agent.graph.MinCapacity(ps.route), ps.baseRTT)
		}
		return
	}
	share := 0.0
	if scenario2 {
		share = ps.share
	}
	p.ramp = startRamp(p.EffectivePhi(), share, ps.baseRTT, now)
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

// advanceRamp advances the first stage on an ack or a response of the
// active path; the additive increase needs a response to know the share.
func (p *Pair) advanceRamp(now sim.Time) {
	ps := p.paths[p.active]
	if p.stage != stageRamp || !ps.responded {
		return
	}
	if p.ramp = p.ramp.advance(ps.allocation, ps.baseRTT, now); p.stage == stageSteady {
		p.recordStage(now, "steady")
	}
}
