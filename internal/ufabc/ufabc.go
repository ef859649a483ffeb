// Package ufabc implements μFAB-C, the informative-core agent that runs on
// every programmable switch (§3.6, §4.2). For each egress link it
// maintains two registers — the total bandwidth subscription Φ_l and the
// total sending window W_l of all active VM-pairs — behind a two-bank
// hashed active-VM-pair table, and stamps each passing probe with an INT
// hop record carrying {W_l, Φ_l, tx_l, q_l, C_l}.
//
// VM-pairs announce themselves through their probes' φ and w fields;
// finish probes deduct a departing VM-pair's contribution; a periodic
// cleanup expires VM-pairs that went silent (§4.2 runs it every 10 s).
// Φ_l is used against the *target* capacity C̄_l = η·C_l
// (probe.TargetUtilization) so a 5% headroom absorbs transient bursts and
// table-collision under-counts.
package ufabc

import (
	"ufab/internal/bloom"
	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// tableSlotsPerBank sizes the active-VM-pair table: 16384 slots per bank
// support the paper's 20K VM-pairs at <5% omission. It is the modelled
// register capacity — it fixes the hash range and hence the collision
// behaviour — not a memory reservation: a link's table is created on its
// first probe and grows with the pairs it carries (see package bloom).
const tableSlotsPerBank = 16384

// Config parameterizes a μFAB-C agent.
type Config struct {
	// CleanupPeriod is how often silent VM-pairs are expired (default
	// 10 s per §4.2; experiments shorten it). A pair is expired by the
	// first sweep that finds it silent for a whole period.
	CleanupPeriod sim.Duration
}

func (c *Config) setDefaults() {
	if c.CleanupPeriod == 0 {
		c.CleanupPeriod = 10 * sim.Second
	}
}

// StalenessBound is how long a silent VM-pair's registration can linger in
// Φ_l and W_l: one period of silence, and at most one more until the sweep
// that finds it. The auditor excuses register residue for that long.
func (c Config) StalenessBound() sim.Duration {
	c.setDefaults()
	return 2 * c.CleanupPeriod
}

// linkState is the per-egress-link register set: the active-VM-pair table
// and the two aggregates it keeps.
type linkState struct {
	table *bloom.Table
	// phiMilli is Φ_l in millitokens; windowBytes is W_l in bytes.
	phiMilli    int64
	windowBytes int64
}

// Agent is a μFAB-C instance for one switch (or one host hypervisor, for
// the partial-deployment mode of §6). It implements
// dataplane.SwitchAgent.
type Agent struct {
	cfg   Config
	links map[topo.LinkID]*linkState

	// Telemetry. New seeds private counters so counts accrue without a
	// registry; AttachTelemetry swaps in the shared registry-backed ones.
	// The base values snapshot each counter at attach time: experiments
	// that build several fabrics against one registry reuse counter names,
	// so the per-agent view is the delta since this agent attached.
	entity                   string
	cProbes                  *telemetry.Counter
	cRestarts                *telemetry.Counter
	cPhiChurn                *telemetry.Counter // sum |ΔΦ_l| in millitokens
	cWChurn                  *telemetry.Counter // sum |ΔW_l| in bytes
	baseProbes, baseRestarts int64
	rec                      *telemetry.Recorder
}

// New returns an agent with the given configuration.
func New(cfg Config) *Agent {
	cfg.setDefaults()
	return &Agent{
		cfg:       cfg,
		links:     make(map[topo.LinkID]*linkState),
		cProbes:   &telemetry.Counter{},
		cRestarts: &telemetry.Counter{},
		cPhiChurn: &telemetry.Counter{},
		cWChurn:   &telemetry.Counter{},
	}
}

// AttachTelemetry registers this agent's instruments under
// "ufabc.<instance>.*" and wires register-churn events into rec, the flight
// recorder of the shard that owns the agent's node
// (dataplane.Network.RecorderAt). Call before the simulation starts; a nil
// reg is a no-op.
func (a *Agent) AttachTelemetry(reg *telemetry.Registry, instance string, rec *telemetry.Recorder) {
	if reg == nil {
		return
	}
	a.entity = "ufabc." + instance
	a.cProbes = reg.Counter(a.entity + ".probes_seen")
	a.cRestarts = reg.Counter(a.entity + ".restarts")
	a.cPhiChurn = reg.Counter(a.entity + ".phi_churn_millitokens")
	a.cWChurn = reg.Counter(a.entity + ".w_churn_bytes")
	a.baseProbes = a.cProbes.Value()
	a.baseRestarts = a.cRestarts.Value()
	a.rec = rec
}

// ProbesSeenCount returns how many probes the agent has processed (the
// delta since AttachTelemetry when a registry is attached).
func (a *Agent) ProbesSeenCount() uint64 {
	return uint64(a.cProbes.Value() - a.baseProbes)
}

// RestartCount returns how many times the agent was restarted (the delta
// since AttachTelemetry when a registry is attached).
func (a *Agent) RestartCount() uint64 {
	return uint64(a.cRestarts.Value() - a.baseRestarts)
}

// StartCleanup registers the periodic silent-quit cleanup on the engine
// and returns a stop function.
func (a *Agent) StartCleanup(eng sim.Scheduler) (stop func()) {
	return eng.Every(a.cfg.CleanupPeriod, func() {
		cutoff := int64(eng.Now() - a.cfg.CleanupPeriod)
		for _, ls := range a.links {
			dPhi, dW, _ := ls.table.Expire(cutoff)
			ls.phiMilli += dPhi
			ls.windowBytes += dW
		}
	})
}

// Restart models an agent reboot: every per-link register — the hashed
// active-VM-pair tables and the Φ_l/W_l aggregates — is lost. The next
// probe of each still-active pair re-registers it, so the registers
// rebuild within an RTT; because the tables restart empty, cleanup never
// sees stale pre-restart entries and re-registration cannot double-count.
func (a *Agent) Restart() {
	a.links = make(map[topo.LinkID]*linkState)
	a.cRestarts.Inc()
}

func (a *Agent) link(id topo.LinkID) *linkState {
	ls := a.links[id]
	if ls == nil {
		ls = &linkState{table: bloom.New(tableSlotsPerBank)}
		a.links[id] = ls
	}
	return ls
}

// Subscription returns the current Φ_l (tokens) and W_l (bytes) registers
// for a link, for tests and experiment instrumentation.
func (a *Agent) Subscription(id topo.LinkID) (phiTokens float64, windowBytes int64) {
	ls := a.links[id]
	if ls == nil {
		return 0, 0
	}
	return float64(ls.phiMilli) * 1e-3, ls.windowBytes
}

// pairKey builds the table key from the probe identity. The switch
// recognizes the VM-pair (§3.6), NOT the (pair, path) combination:
// candidate paths of one pair share prefix links (always the host
// uplink), and keying by pair keeps Φ_l idempotent when several candidate
// probes of the same pair traverse the same link during a migration
// evaluation. A pair has one active path (§6), so one entry per pair per
// link is all the register ever needs to hold.
func pairKey(p *probe.Packet) uint64 {
	return uint64(p.VMPair)
}

// OnForward implements dataplane.SwitchAgent: it processes probe packets
// at egress enqueue time, updating the link registers and appending the
// INT hop record. Data, ACK and response packets pass through untouched
// (responses only carry information back; §3.2 step 5). Like the Tofino
// pipeline it reads the probe's preamble and writes its 12-byte record onto
// the wire buffer in place; when the edge sized the payload for the path's
// hop records nothing is allocated.
func (a *Agent) OnForward(pkt *dataplane.Packet, out *dataplane.Port, now sim.Time) {
	if pkt.Kind != dataplane.Probe || len(pkt.Payload) == 0 {
		return
	}
	p, nHops, err := probe.DecodeHeader(pkt.Payload)
	if err != nil {
		return // malformed probe: forward without touching registers
	}
	if !(p.Phi >= 0 && p.Phi < 1e12) {
		// A corrupted payload can decode into a NaN/Inf/absurd φ; keep
		// such garbage out of the Φ_l register (NaN fails the comparison).
		return
	}
	a.cProbes.Inc()
	ls := a.link(out.Link.ID)
	key := pairKey(&p)
	// The probe's wire identity (pair, path, seq) reproduces the edge's
	// trace id, so per-hop register updates join the probe's causal trace.
	trace := telemetry.SpanID(telemetry.TraceProbe, int64(p.VMPair), int64(p.PathID), int64(p.Seq))
	switch p.Kind {
	case probe.KindProbe:
		phiMilli := uint32(p.Phi*1000 + 0.5)
		dPhi, dW, _ := ls.table.Update(key, phiMilli, p.Window, int64(now))
		ls.phiMilli += dPhi
		ls.windowBytes += dW
		a.recordChurn(dPhi, dW, now, "update", trace)
	case probe.KindFinish:
		dPhi, dW, _ := ls.table.Remove(key)
		ls.phiMilli += dPhi
		ls.windowBytes += dW
		a.recordChurn(dPhi, dW, now, "remove", trace)
	default:
		return
	}
	// Stamp the INT record against the *target* capacity.
	buf, err := probe.StampHop(pkt.Payload, probe.Hop{
		TotalWindow: clampU32(ls.windowBytes),
		TotalTokens: float64(ls.phiMilli) * 1e-3,
		TxRate:      out.TxRate(now),
		Queue:       uint32(out.QueueBytes()),
		Capacity:    probe.TargetUtilization * out.Capacity(),
		LinkID:      int32(out.Link.ID),
	})
	if err != nil {
		return // path longer than the probe format's 15 hop records: leave the rest unstamped
	}
	pkt.Payload = buf
	pkt.Size = probe.WireSize(nHops + 1)
}

// recordChurn accounts a register delta in the churn counters and the
// flight recorder. A no-op when telemetry is unattached or the probe left
// the registers untouched (the steady-state re-registration case).
func (a *Agent) recordChurn(dPhi, dW int64, now sim.Time, note string, trace uint64) {
	if a.cPhiChurn == nil || (dPhi == 0 && dW == 0) {
		return
	}
	a.cPhiChurn.Add(abs64(dPhi))
	a.cWChurn.Add(abs64(dW))
	if a.rec != nil {
		a.rec.Record(telemetry.Event{T: int64(now), Kind: telemetry.EvRegister,
			Entity: a.entity, A: dPhi, B: dW, Note: note, Trace: trace, Span: 2})
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(v)
}
