package dataplane

import (
	"sync/atomic"

	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// Degradation describes a gray link fault: the link stays up (BFD keeps
// passing) but misbehaves. Zero fields leave the corresponding aspect
// untouched, so a Degradation is composable from any subset of symptoms.
type Degradation struct {
	// CapacityScale in [minCapacityScale, 1) scales the effective line rate
	// (e.g. an autoneg downshift or a failing lane); 0 or >= 1 means full
	// rate.
	CapacityScale float64 `json:"capacity_scale,omitempty"`
	// ExtraDelay is added to the link's propagation delay; it lies in
	// [0, maxExtraDelay].
	ExtraDelay sim.Duration `json:"extra_delay_ps,omitempty"`
	// LossProb drops any packet entering the link with this probability.
	LossProb float64 `json:"loss_prob,omitempty"`
	// ProbeDropProb additionally drops probe/response packets — the
	// "control plane starves while data flows" failure mode.
	ProbeDropProb float64 `json:"probe_drop_prob,omitempty"`
	// ProbeCorruptProb flips a random payload byte of probe/response
	// packets instead of dropping them; agents must survive the garbage.
	ProbeCorruptProb float64 `json:"probe_corrupt_prob,omitempty"`
}

// active reports whether any symptom is configured.
func (d *Degradation) active() bool {
	return d.CapacityScale > 0 || d.ExtraDelay > 0 || d.LossProb > 0 ||
		d.ProbeDropProb > 0 || d.ProbeCorruptProb > 0
}

// linkFault is the per-link fault state, distinct from node failure: the
// endpoints stay alive while the link itself is down or degraded.
type linkFault struct {
	down bool
	deg  Degradation
}

func (f *linkFault) clear() bool { return !f.down && !f.deg.active() }

// The bounds of a degradation the simulator can schedule. maxExtraDelay is
// the largest latency a gray fault may add: a simulated second, far beyond
// any link a fabric carries traffic over, and small enough that propagation
// delay plus it cannot overflow sim.Duration. minCapacityScale is the
// slowest a link may run: a millionth of its line rate, already dead to
// every flow; far below it a packet's serialization delay overflows
// sim.Duration.
const (
	maxExtraDelay    = sim.Second
	minCapacityScale = 1e-6
)

// validLink reports whether l indexes a real link.
func (n *Network) validLink(l topo.LinkID) bool {
	return int(l) >= 0 && int(l) < len(n.faults)
}

// FailLink takes a directional link down: packets entering it are
// dropped (and reported through OnFailDrop) while both endpoints stay
// alive, and ECMP stops choosing it. Returns false for an out-of-range
// id.
func (n *Network) FailLink(l topo.LinkID) bool {
	if !n.validLink(l) {
		return false
	}
	n.faults[l].down = true
	return true
}

// RecoverLink brings a downed link back; any degradation persists.
func (n *Network) RecoverLink(l topo.LinkID) bool {
	if !n.validLink(l) {
		return false
	}
	n.faults[l].down = false
	return true
}

// LinkFailed reports whether a link is down (false for bad ids).
func (n *Network) LinkFailed(l topo.LinkID) bool {
	return n.validLink(l) && n.faults[l].down
}

// DegradeLink applies a gray fault to a link, replacing any previous
// degradation. Returns false for an out-of-range id and for a degradation
// the simulator cannot schedule: an ExtraDelay below zero (an arrival before
// its departure) or above maxExtraDelay, or a CapacityScale below
// minCapacityScale.
func (n *Network) DegradeLink(l topo.LinkID, d Degradation) bool {
	if !n.validLink(l) || d.ExtraDelay < 0 || d.ExtraDelay > maxExtraDelay ||
		(d.CapacityScale > 0 && d.CapacityScale < minCapacityScale) {
		return false
	}
	n.faults[l].deg = d
	return true
}

// RestoreLink clears a link's degradation (but not its down state).
func (n *Network) RestoreLink(l topo.LinkID) bool {
	if !n.validLink(l) {
		return false
	}
	n.faults[l].deg = Degradation{}
	return true
}

// LinkDegraded reports whether a link carries a gray fault.
func (n *Network) LinkDegraded(l topo.LinkID) bool {
	return n.validLink(l) && n.faults[l].deg.active()
}

// EffectiveCapacity returns a link's line rate after any gray-fault
// capacity scaling (0 for out-of-range ids) — what the link can actually
// carry right now, as opposed to Port.Capacity's configured line rate.
func (n *Network) EffectiveCapacity(l topo.LinkID) float64 {
	if !n.validLink(l) {
		return 0
	}
	return n.effectiveCapacity(&n.Ports[l])
}

// effectiveCapacity is the link line rate after any degradation.
func (n *Network) effectiveCapacity(port *Port) float64 {
	c := port.Link.Capacity
	if s := n.faults[port.id].deg.CapacityScale; s > 0 && s < 1 {
		c *= s
	}
	return c
}

// faultFilter applies the link's fault state to a packet about to enter
// it. It returns false when the packet is dropped. Corruption mutates a
// copy of the payload so shared probe buffers are never aliased. It runs in
// the link-source shard's context: probabilistic draws consume that shard's
// RNG stream, so fault outcomes are a pure function of (topology, seed) no
// matter how many workers execute the shards.
func (n *Network) faultFilter(pkt *Packet, port *Port) bool {
	f := &n.faults[port.id]
	if f.clear() {
		return true
	}
	if f.down {
		port.FaultDrops++
		atomic.AddUint64(&n.FaultDrops, 1)
		atomic.AddUint64(&n.TotalDrops, 1)
		n.recordFaultDrop(pkt, port)
		if n.OnFailDrop != nil {
			// The near end detects the dark link; from its viewpoint the
			// far end is unreachable.
			n.OnFailDrop(pkt, port.src, port.dst)
		}
		return false
	}
	d := &f.deg
	rng := n.faultRngs[port.shard]
	if d.LossProb > 0 && rng.Float64() < d.LossProb {
		port.FaultDrops++
		atomic.AddUint64(&n.FaultDrops, 1)
		atomic.AddUint64(&n.TotalDrops, 1)
		n.recordFaultDrop(pkt, port)
		return false
	}
	if pkt.Kind == Probe || pkt.Kind == Response {
		if d.ProbeDropProb > 0 && rng.Float64() < d.ProbeDropProb {
			port.FaultDrops++
			atomic.AddUint64(&n.FaultDrops, 1)
			atomic.AddUint64(&n.TotalDrops, 1)
			n.recordFaultDrop(pkt, port)
			return false
		}
		if d.ProbeCorruptProb > 0 && len(pkt.Payload) > 0 && rng.Float64() < d.ProbeCorruptProb {
			// The copy keeps the spare capacity the edge reserved for the
			// remaining hop records.
			b := append(make([]byte, 0, cap(pkt.Payload)), pkt.Payload...)
			i := rng.Intn(len(b))
			b[i] ^= 1 << uint(rng.Intn(8))
			pkt.Payload = b
			atomic.AddUint64(&n.CorruptedProbes, 1)
			if rec := n.recs[port.shard]; rec != nil {
				rec.Record(telemetry.Event{T: int64(n.scheds[port.shard].Now()), Kind: telemetry.EvFault,
					Entity: n.linkEnt(port.id), A: int64(pkt.Kind), Note: "probe_corrupt"})
			}
		}
	}
	return true
}

// recordFaultDrop traces a fault-induced packet loss (no-op without a
// recorder), into the link-source shard's recorder.
func (n *Network) recordFaultDrop(pkt *Packet, port *Port) {
	rec := n.recs[port.shard]
	if rec == nil {
		return
	}
	rec.Record(telemetry.Event{T: int64(n.scheds[port.shard].Now()), Kind: telemetry.EvDrop,
		Entity: n.linkEnt(port.id), A: int64(pkt.Kind), Note: "fault"})
}
