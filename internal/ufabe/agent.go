// Package ufabe implements μFAB-E, the active-edge agent (§3.3–§3.5,
// §4.1). One Agent runs per host (per SmartNIC). It performs
// hierarchical bandwidth allocation (Eqns 1–3), two-stage window-based
// traffic admission, self-clocked probing, and accurate, oscillation-free
// path migration, driven entirely by the INT telemetry μFAB-C piggybacks
// onto probe responses. It also embeds the Guarantee Partitioning token
// loop of Appendix E (sender assignment + receiver admission).
//
// The package decides apart from doing. law.go is the control law as
// functions of values — allocate (Eqns 1 and 3, qualification), the
// two-stage ramp, the violation streak, selectPath, betterPath, and both
// sides of Guarantee Partitioning (assignTokens, admitTokens) — over the
// paper's constants (BU, mtu, ackSize, eta, violationRTTs,
// idleFinishAfter), with no engine, network or recorder in reach; law_test.go
// iterates it against a synthetic link. Agent (this file) is transport,
// timers, the RNG, counters and flight-recorder events: it decodes, updates
// path state, asks the law and applies the decision, in an order of engine
// and RNG calls that every golden depends on. pair.go is the state the two
// share, sched.go the WFQ engine.
package ufabe

import (
	"fmt"
	"math"
	"math/rand"

	"ufab/internal/dataplane"
	"ufab/internal/flowsrc"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// Config parameterizes an edge agent: what some experiment, fuzz case or test
// varies. The paper's fixed numbers are the constants of law.go.
type Config struct {
	// ProbePayloadBytes is L_w: the bytes transmitted between
	// self-clocked probes (default 4096, giving the ≤1.28% overhead
	// bound of Fig 15b).
	ProbePayloadBytes int64
	// PeriodicProbeRTTs switches from self-clocked to periodic probing
	// every n·baseRTT (Fig 18c). 0 keeps self-clocking.
	PeriodicProbeRTTs int
	// DisableTwoStage removes the two-stage admission burst bound — the
	// μFAB′ variant of Figs 12 and 16.
	DisableTwoStage bool
	// FreezeMaxRTTs is N: after a migration, migrations freeze for a
	// uniform-random [1,N] RTTs (default 10, Fig 18a/b).
	FreezeMaxRTTs int
	// BetterPathHold is how long a persistently better path must be
	// observed before a work-conservation migration (default 30 s).
	BetterPathHold sim.Duration
	// CandidateProbeInterval is how often idle candidate paths are
	// re-probed for the better-path trigger (default 1 s; negative
	// disables).
	CandidateProbeInterval sim.Duration
	// ReorderFree delays data one baseRTT after each migration so the
	// old path drains (§3.5 "avoiding reordering").
	ReorderFree bool
	// TokenPeriod is the Guarantee Partitioning update period (default
	// 32 μs per §5.1; negative disables GP so pairs keep static tokens).
	TokenPeriod sim.Duration
	// ProbeTimeoutRTTs detects probe loss after n·baseRTT (default 8,
	// §4.1: latency is bounded by 4 baseRTTs, so 8 is safe).
	ProbeTimeoutRTTs int
	// Seed drives all randomized choices (initial path, freeze window).
	Seed int64
}

func (c *Config) setDefaults() {
	if c.ProbePayloadBytes == 0 {
		c.ProbePayloadBytes = 4096
	}
	if c.FreezeMaxRTTs == 0 {
		c.FreezeMaxRTTs = 10
	}
	if c.BetterPathHold == 0 {
		c.BetterPathHold = 30 * sim.Second
	}
	if c.CandidateProbeInterval == 0 {
		c.CandidateProbeInterval = sim.Second
	}
	if c.TokenPeriod == 0 {
		c.TokenPeriod = 32 * sim.Microsecond
	}
	if c.ProbeTimeoutRTTs == 0 {
		c.ProbeTimeoutRTTs = 8
	}
}

// recvPair is the receiver-side record of an incoming VM-pair, used for
// Guarantee Partitioning admission. The agent's map holds it by value: a
// pair that finishes and wakes again re-enters the map without a new object.
type recvPair struct {
	vf        int32
	requested float64 // the φ its last probe carried
	admitted  float64 // the last admission (admitTokens)
	lastSeen  sim.Time
}

// PairConfig describes a new VM-pair for AddPair.
type PairConfig struct {
	ID dataplane.VMPair
	// VF is the id of a tenant VF registered in the agent's Tenancy.
	VF  int32
	Dst topo.NodeID
	// Routes are the candidate underlay paths (≥1). μFAB-E randomly
	// picks the initial active path among them.
	Routes []topo.Path
	// Phi is the initial bandwidth token; under GP it is reassigned
	// every TokenPeriod.
	Phi float64
	// Demand supplies the bytes to send; nil creates an idle pair.
	Demand Demand
}

// Agent is the per-host μFAB-E instance. It implements dataplane.Handler
// for its host.
type Agent struct {
	eng   sim.Scheduler
	net   *dataplane.Network
	graph *topo.Graph
	host  topo.NodeID
	cfg   Config
	rng   *rand.Rand

	// ten is the fabric's tenant table; vfs holds sender state for the VFs
	// this host sources pairs of, and for no others.
	ten   *Tenancy
	vfs   map[int32]*vfState
	pairs map[dataplane.VMPair]*Pair
	sched *wfq

	nicNextFree sim.Time
	sendPending bool
	// sendTick is the one callback scheduleSend ever schedules, bound once
	// (as dataplane's Port.txDone is) so arming the send loop allocates
	// nothing.
	sendTick  sim.Event
	uplinkCap float64

	// Per-host migration freeze window (§3.5 "avoiding oscillations").
	freezeUntil sim.Time

	// Receiver side.
	recvPairs map[dataplane.VMPair]recvPair

	// OnReceive, if set, observes data bytes arriving at this host
	// (used by application models).
	OnReceive func(vm dataplane.VMPair, bytes int, now sim.Time)

	// Telemetry: overhead accounting (Fig 15b) and migration counters for
	// the fault experiments. New seeds private counters so counts accrue
	// without a registry; AttachTelemetry swaps in the shared
	// registry-backed ones. The base values snapshot each counter at
	// attach time: experiments that build several fabrics against one
	// registry reuse counter names, so the per-agent view is the delta
	// since this agent attached.
	entity                            string
	cProbes                           *telemetry.Counter
	cProbeB                           *telemetry.Counter
	cDataB                            *telemetry.Counter
	cMigr                             *telemetry.Counter
	cFrArmed                          *telemetry.Counter
	cFrSupp                           *telemetry.Counter
	baseProbes, baseProbeB, baseDataB int64
	baseMigr, baseFrArmed, baseFrSupp int64
	hRTT                              *telemetry.Histogram
	rec                               *telemetry.Recorder

	// resp is handleResponse's decode target, kept across responses so its
	// hop records are decoded into the same backing array every time.
	resp probe.Packet
	// probeBufs holds the payload buffers of answered probes: a probe starts
	// and ends at this agent, so its buffer comes back here, in this shard,
	// and the next probe that rides a pooled packet without one takes it.
	probeBufs [][]byte
	// timers holds the fired records of the agent's one-shot checks, ready
	// to be armed again (timer).
	timers []*timer

	tokenLoopStop func()
	// gp is tokenUpdate's working memory, kept across ticks: one VF's pairs
	// as the sender side sees them, the requests arriving here grouped by
	// VF, the emptied request slices of VFs that stopped arriving, and the
	// law's answer.
	gp struct {
		pairs []tokenPair
		byVF  map[int32][]tokenRequest
		spare [][]tokenRequest
		out   []float64
	}
}

// AttachTelemetry registers this agent's instruments under
// "ufabe.<instance>.*" and wires probe/window/migration events into the
// flight recorder of the shard that owns the host. Call before the
// simulation starts; a nil reg is a no-op.
func (a *Agent) AttachTelemetry(reg *telemetry.Registry, instance string) {
	if reg == nil {
		return
	}
	a.entity = "ufabe." + instance
	a.cProbes = reg.Counter(a.entity + ".probes_sent")
	a.cProbeB = reg.Counter(a.entity + ".probe_bytes")
	a.cDataB = reg.Counter(a.entity + ".data_bytes")
	a.cMigr = reg.Counter(a.entity + ".migrations")
	a.cFrArmed = reg.Counter(a.entity + ".freezes_armed")
	a.cFrSupp = reg.Counter(a.entity + ".freeze_suppressed")
	a.baseProbes = a.cProbes.Value()
	a.baseProbeB = a.cProbeB.Value()
	a.baseDataB = a.cDataB.Value()
	a.baseMigr = a.cMigr.Value()
	a.baseFrArmed = a.cFrArmed.Value()
	a.baseFrSupp = a.cFrSupp.Value()
	a.hRTT = reg.Histogram(a.entity + ".probe_rtt_us")
	a.rec = a.net.RecorderAt(a.host)
}

// MigrationsCount returns completed path migrations (the delta since
// AttachTelemetry when a registry is attached).
func (a *Agent) MigrationsCount() uint64 {
	return uint64(a.cMigr.Value() - a.baseMigr)
}

// FreezesArmedCount returns freeze windows armed by urgent migrations.
func (a *Agent) FreezesArmedCount() uint64 {
	return uint64(a.cFrArmed.Value() - a.baseFrArmed)
}

// FreezeSuppressedCount returns migration attempts suppressed by an
// active freeze window.
func (a *Agent) FreezeSuppressedCount() uint64 {
	return uint64(a.cFrSupp.Value() - a.baseFrSupp)
}

// ProbesSentCount returns probes emitted by this agent.
func (a *Agent) ProbesSentCount() uint64 {
	return uint64(a.cProbes.Value() - a.baseProbes)
}

// ProbeBytesCount returns probe bytes at delivery size.
func (a *Agent) ProbeBytesCount() uint64 {
	return uint64(a.cProbeB.Value() - a.baseProbeB)
}

// DataBytesCount returns data bytes handed to the wire.
func (a *Agent) DataBytesCount() uint64 {
	return uint64(a.cDataB.Value() - a.baseDataB)
}

// New creates the agent for a host and installs it as the host's packet
// handler. The host must have exactly one uplink. ten is the fabric's tenant
// table, shared by every agent of the fabric.
func New(eng sim.Scheduler, net *dataplane.Network, host topo.NodeID, cfg Config, ten *Tenancy) *Agent {
	cfg.setDefaults()
	g := net.G
	if g.Node(host).Kind != topo.Host {
		panic(fmt.Sprintf("ufabe: node %d is not a host", host))
	}
	if len(g.Node(host).Out) != 1 {
		panic(fmt.Sprintf("ufabe: host %d has %d uplinks, want 1", host, len(g.Node(host).Out)))
	}
	a := &Agent{
		eng:       eng,
		net:       net,
		graph:     g,
		host:      host,
		cfg:       cfg,
		rng:       stats.NewRand(cfg.Seed + int64(host)*0x9e3779b9),
		ten:       ten,
		vfs:       make(map[int32]*vfState),
		pairs:     make(map[dataplane.VMPair]*Pair),
		sched:     newWFQ(&ten.roster),
		recvPairs: make(map[dataplane.VMPair]recvPair),
		uplinkCap: g.Link(g.Node(host).Out[0]).Capacity,
		cProbes:   &telemetry.Counter{},
		cProbeB:   &telemetry.Counter{},
		cDataB:    &telemetry.Counter{},
		cMigr:     &telemetry.Counter{},
		cFrArmed:  &telemetry.Counter{},
		cFrSupp:   &telemetry.Counter{},
	}
	ten.agents = append(ten.agents, a)
	a.sendTick = func() {
		a.sendPending = false
		a.trySend()
	}
	a.gp.byVF = make(map[int32][]tokenRequest)
	net.SetHandler(host, a)
	if cfg.TokenPeriod > 0 {
		a.tokenLoopStop = eng.Every(cfg.TokenPeriod, a.tokenUpdate)
	}
	return a
}

// Stop cancels the agent's periodic loops (token updates).
func (a *Agent) Stop() {
	if a.tokenLoopStop != nil {
		a.tokenLoopStop()
	}
}

// Host returns the node this agent serves.
func (a *Agent) Host() topo.NodeID { return a.host }

// Config returns the agent's effective configuration.
func (a *Agent) Config() Config { return a.cfg }

// Pair returns the sender-side pair state, or nil.
func (a *Agent) Pair(id dataplane.VMPair) *Pair { return a.pairs[id] }

// Pairs returns all sender-side pairs on this host.
func (a *Agent) Pairs() []*Pair {
	out := make([]*Pair, 0, len(a.pairs))
	for _, p := range a.pairs {
		out = append(out, p)
	}
	return out
}

// AddPair creates a VM-pair, probes its candidate paths in parallel
// (bootstrap, §3.5), and starts two-stage admission on a randomly chosen
// initial path.
func (a *Agent) AddPair(pc PairConfig) *Pair {
	if len(pc.Routes) == 0 {
		panic("ufabe: AddPair without routes")
	}
	if _, ok := a.pairs[pc.ID]; ok {
		panic(fmt.Sprintf("ufabe: pair %d already exists", pc.ID))
	}
	vf := a.sourceVF(pc.VF)
	if vf == nil {
		panic(fmt.Sprintf("ufabe: pair %d of unregistered VF %d", pc.ID, pc.VF))
	}
	p := &Pair{
		ID:     pc.ID,
		VF:     pc.VF,
		Src:    a.host,
		Dst:    pc.Dst,
		Demand: pc.Demand,
		agent:  a,
		vf:     vf,
		phi:    pc.Phi,
	}
	for i, r := range pc.Routes {
		if a.graph.PathSrc(r) != a.host {
			panic(fmt.Sprintf("ufabe: route %d does not start at host %d", i, a.host))
		}
		p.paths = append(p.paths, &pathState{
			id:      uint16(i),
			route:   r,
			back:    a.graph.ReversePath(r),
			baseRTT: a.graph.BaseRTT(r, mtu),
		})
	}
	p.active = a.rng.Intn(len(p.paths))
	a.pairs[pc.ID] = p
	a.sched.addPair(vf, p)
	if k, ok := pc.Demand.(flowsrc.Kicker); ok && pc.Demand != nil {
		k.SetKick(func() { a.Kick(p) })
	}
	p.enterRamp(a.eng.Now(), false)
	a.evaluate(p, evalBootstrap)
	// The slow work-conservation scan (§3.5 trigger ii).
	if a.cfg.CandidateProbeInterval > 0 && len(p.paths) > 1 {
		p.stopScan = a.eng.Every(a.cfg.CandidateProbeInterval, func() { a.scanForBetterPath(p) })
	}
	a.scheduleSend()
	return p
}

// sourceVF returns the host's sender state for VF id, creating it with the
// host's first pair of the VF; nil for a VF the tenancy does not know.
func (a *Agent) sourceVF(id int32) *vfState {
	if vf := a.vfs[id]; vf != nil {
		return vf
	}
	tn := a.ten.byID[id]
	if tn == nil {
		return nil
	}
	vf := &vfState{tenant: tn}
	a.vfs[id] = vf
	return vf
}

// RemovePair tears a pair down: finish probes on its active path, its
// candidate-scan timer stopped, and removal from the scheduler.
func (a *Agent) RemovePair(id dataplane.VMPair) {
	p := a.pairs[id]
	if p == nil {
		return
	}
	a.sendProbe(p, p.active, probe.KindFinish)
	delete(a.pairs, id)
	if p.stopScan != nil {
		p.stopScan()
	}
	a.sched.removePair(p.vf, p)
}

// dropVF is this host's part of Tenancy.Remove, after the tenant has left
// the roster: the host's pairs of the VF are torn down (finish probes
// included, so core registers deallocate), its sender state goes, and the
// WFQ cursor of the VF's class is kept inside the shrunken roster.
func (a *Agent) dropVF(tn *tenant) {
	if vf := a.vfs[tn.id]; vf != nil {
		for len(vf.pairs) > 0 {
			a.RemovePair(vf.pairs[0].ID)
		}
		delete(a.vfs, tn.id)
	}
	a.sched.rosterShrank(tn.class)
}

func (p *Pair) maxBaseRTT() sim.Duration {
	var m sim.Duration
	for _, ps := range p.paths {
		if ps.baseRTT > m {
			m = ps.baseRTT
		}
	}
	return m
}

// Kick wakes the pair after new demand arrives, reactivating it from idle
// (Scenario-2 admission) when necessary.
func (a *Agent) Kick(p *Pair) {
	if p.idle {
		p.idle = false
		// Refresh the token split right away so the reactivated pair
		// does not spend its first RTTs on the idle-era equal share.
		if a.cfg.TokenPeriod > 0 {
			a.tokenUpdate()
		}
		p.enterRamp(a.eng.Now(), true)
		a.sendProbe(p, p.active, probe.KindProbe)
	}
	a.scheduleSend()
}

// ---- Sending path -------------------------------------------------------

func (a *Agent) scheduleSend() {
	if a.sendPending {
		return
	}
	a.sendPending = true
	at := a.nicNextFree
	if now := a.eng.Now(); at < now {
		at = now
	}
	a.eng.At(at, a.sendTick)
}

// trySend emits at most one data packet (the WFQ engine schedules one
// packet at a time, §4.1) and re-arms itself while work remains.
func (a *Agent) trySend() {
	now := a.eng.Now()
	if now < a.nicNextFree {
		a.scheduleSend()
		return
	}
	p := a.sched.nextPair(int64(now), mtu)
	if p == nil {
		return
	}
	size := int64(mtu)
	if pend := p.Demand.Pending(); pend < size {
		size = pend
	}
	if room := p.Window() - p.inflight; room < size {
		size = room
	}
	if size <= 0 {
		return
	}
	p.Demand.Consume(size)
	p.inflight += size
	p.SentBytes += size
	p.txSinceToken += size
	p.bytesSinceResp += size
	p.seq++
	p.lastProgress = now
	a.armRTO(p)
	a.cDataB.Add(size)
	ps := p.paths[p.active]
	ps.inflight += size
	pkt := a.net.NewPacket(a.host)
	pkt.Kind, pkt.VMPair, pkt.Tenant = dataplane.Data, p.ID, p.VF
	pkt.Size, pkt.Seq, pkt.SentAt = int(size), p.seq, now
	pkt.Route, pkt.Return, pkt.PathID = ps.route, ps.back, ps.id
	a.net.Send(pkt)
	a.sched.charge(p, int(size), p.vf.class)
	a.nicNextFree = now + topo.SerializationDelay(int(size), a.uplinkCap)
	// Self-clocked probing: L_w bytes since the last response.
	if p.wantProbe && p.bytesSinceResp >= a.cfg.ProbePayloadBytes {
		a.sendProbe(p, p.active, probe.KindProbe)
	}
	a.scheduleSend()
}

// ---- Probing ------------------------------------------------------------

func (a *Agent) sendProbe(p *Pair, pathIdx int, kind probe.Kind) {
	ps := p.paths[pathIdx]
	ps.probeSeq++
	seq := ps.probeSeq
	pp := probe.Packet{
		Kind:   kind,
		VMPair: uint32(p.ID),
		PathID: ps.id,
		Seq:    seq,
		Phi:    p.phi,
		Window: uint32(min(p.Window(), int64(^uint32(0)))),
		SentAt: int64(a.eng.Now()),
	}
	// The probe is encoded into the packet's buffer, or into one an earlier
	// response gave back when the pooled packet has none big enough, with
	// room for one INT record per link of the path: the switches stamp it in
	// place (probe.StampHop), the far edge flips it into the response in
	// place, and nobody regrows it.
	pkt := a.net.NewPacket(a.host)
	if need := probe.PayloadSize(len(ps.route)); cap(pkt.Payload) < need {
		pkt.Payload = a.probeBuf(need)
	}
	buf, err := pp.Encode(pkt.Payload)
	if err != nil {
		panic(fmt.Sprintf("ufabe: probe encode: %v", err))
	}
	pkt.Kind, pkt.VMPair, pkt.Tenant = dataplane.Probe, p.ID, p.VF
	pkt.Size, pkt.SentAt, pkt.Payload = probe.WireSize(0), a.eng.Now(), buf
	pkt.Route, pkt.Return, pkt.PathID = ps.route, ps.back, ps.id
	a.net.Send(pkt)
	if kind == probe.KindProbe && pathIdx == p.active {
		p.wantProbe = false
	}
	a.cProbes.Inc()
	a.cProbeB.Add(int64(probe.WireSize(len(ps.route)))) // size at delivery
	if a.rec != nil {
		note := "probe"
		if kind == probe.KindFinish {
			note = "finish"
		}
		a.rec.Record(telemetry.Event{T: int64(a.eng.Now()), Kind: telemetry.EvProbeTX,
			Entity: a.entity, A: int64(p.ID), B: int64(pathIdx), Note: note,
			Trace: telemetry.SpanID(telemetry.TraceProbe, int64(p.ID), int64(ps.id), int64(seq)), Span: 1})
	}
	// Probe-loss detection (§4.1): timeout at n·baseRTT, stretched by
	// the smoothed measured RTT when standing queues dominate.
	timeout := sim.Duration(a.cfg.ProbeTimeoutRTTs) * ps.baseRTT
	if adaptive := 4 * ps.srtt; adaptive > timeout {
		timeout = adaptive
	}
	a.arm(timeout, probeTimeout, p, pathIdx, seq, 0)
}

// probeBuf returns an empty buffer with room for need bytes: the last one a
// response gave back, or a new one when there is none. One too small for
// this probe (its path is longer than the one it last served) is dropped,
// so the list converges on buffers every route of the agent fits.
func (a *Agent) probeBuf(need int) []byte {
	if k := len(a.probeBufs); k > 0 {
		buf := a.probeBufs[k-1]
		a.probeBufs[k-1] = nil
		a.probeBufs = a.probeBufs[:k-1]
		if cap(buf) >= need {
			return buf[:0]
		}
	}
	return make([]byte, 0, need)
}

func (a *Agent) checkProbeTimeout(p *Pair, pathIdx int, seq uint32) {
	if a.pairs[p.ID] != p {
		return // pair removed
	}
	ps := p.paths[pathIdx]
	if ps.respSeq >= seq {
		return // answered
	}
	if pathIdx == p.active {
		// Consecutive probe drops count as predictability violations.
		if p.viol = p.viol.step(true); p.viol.tripped() {
			a.beginMigration(p)
		}
		if p.Demand != nil && (p.Demand.Pending() > 0 || p.inflight > 0) {
			a.sendProbe(p, pathIdx, probe.KindProbe)
		}
	}
}

// ---- Receive path ---------------------------------------------------------

// HandlePacket implements dataplane.Handler.
func (a *Agent) HandlePacket(pkt *dataplane.Packet) {
	switch pkt.Kind {
	case dataplane.Data:
		a.handleData(pkt)
	case dataplane.Ack:
		a.handleAck(pkt)
	case dataplane.Probe:
		a.handleProbe(pkt)
	case dataplane.Response:
		a.handleResponse(pkt)
	}
}

func (a *Agent) handleData(pkt *dataplane.Packet) {
	now := a.eng.Now()
	if a.OnReceive != nil {
		a.OnReceive(pkt.VMPair, pkt.Size, now)
	}
	// Acknowledge on the reverse path: the data packet itself, turned around,
	// still carrying the pair, the tenant and the sender's path index.
	size, sentAt := pkt.Size, pkt.SentAt
	ack := a.net.Reply(pkt, a.host)
	ack.Kind, ack.Size, ack.SentAt = dataplane.Ack, ackSize, now
	ack.AckedBytes, ack.AckedSentAt = size, sentAt
	a.net.Send(ack)
}

func (a *Agent) handleAck(pkt *dataplane.Packet) {
	p := a.pairs[pkt.VMPair]
	if p == nil {
		return
	}
	now := a.eng.Now()
	// Attribute the ack to its path: bytes already reclaimed as orphans
	// (after a migration) must not be freed twice.
	acked := int64(pkt.AckedBytes)
	credit := acked
	if int(pkt.PathID) < len(p.paths) {
		ps := p.paths[pkt.PathID]
		if ps.inflight < credit {
			credit = ps.inflight
		}
		ps.inflight -= credit
	}
	p.inflight -= credit
	if p.inflight < 0 {
		p.inflight = 0
	}
	p.lastProgress = now
	p.Delivered += acked
	if p.RTT != nil {
		p.RTT.Add((now - pkt.AckedSentAt).Micros())
	}
	p.advanceRamp(now)
	if obs, ok := p.Demand.(DeliveryObserver); ok {
		obs.Delivered(acked, now)
	}
	// Idle detection: demand drained and nothing in flight.
	if p.Demand.Pending() == 0 && p.inflight == 0 && !p.idle {
		p.idleSince = now
		a.arm(idleFinishAfter, idleCheck, p, 0, 0, int64(now))
	}
	a.scheduleSend()
}

func (a *Agent) checkIdle(p *Pair, since sim.Time) {
	if a.pairs[p.ID] != p || p.idle {
		return
	}
	if p.Demand.Pending() > 0 || p.inflight > 0 || p.idleSince != since {
		return
	}
	p.idle = true
	a.sendProbe(p, p.active, probe.KindFinish)
}

// handleProbe runs at the destination edge: record the sender's token
// demand for GP admission and return the response with the receiver-side
// admitted token (§3.2 steps 4–5).
func (a *Agent) handleProbe(pkt *dataplane.Packet) {
	pp, _, err := probe.DecodeHeader(pkt.Payload)
	if err != nil {
		return
	}
	now := a.eng.Now()
	var admitted float64 // 0 = unbound
	switch pp.Kind {
	case probe.KindProbe:
		rp, ok := a.recvPairs[pkt.VMPair]
		if !ok {
			rp = recvPair{vf: pkt.Tenant, admitted: unbound}
		}
		rp.lastSeen = now
		rp.requested = pp.Phi
		a.recvPairs[pkt.VMPair] = rp
		if rp.admitted != unbound && rp.admitted > 0 {
			admitted = rp.admitted
		}
	case probe.KindFinish:
		delete(a.recvPairs, pkt.VMPair)
	default:
		return
	}
	// The probe turns around as its own response: same packet, same buffer,
	// the hop records where the switches stamped them.
	resp := a.net.Reply(pkt, a.host)
	resp.Payload, _ = probe.FlipToResponse(resp.Payload, admitted) // framed as DecodeHeader just accepted it
	resp.Kind, resp.SentAt = dataplane.Response, now
	resp.Size = pkt.Size // response carries the same telemetry back
	a.net.Send(resp)
}

// handleResponse runs at the source edge: step 6 of the workflow — rate
// adjustment on the current path or migration away from it. Decode, update
// the path's state, ask the law, apply.
func (a *Agent) handleResponse(pkt *dataplane.Packet) {
	p := a.pairs[pkt.VMPair]
	resp := &a.resp
	var err error
	if p != nil {
		_, err = probe.DecodeInto(resp, pkt.Payload)
	}
	// The decode was the payload's last reader (Network.Trace ran before this
	// handler; the packet's release after it finds no payload): the buffer
	// goes back to the agent's probes, and the packet back to the pool
	// without it.
	a.probeBufs = append(a.probeBufs, pkt.Payload)
	pkt.Payload = nil
	if p == nil || err != nil || int(resp.PathID) >= len(p.paths) {
		return
	}
	now := a.eng.Now()
	ps := p.paths[resp.PathID]
	onActive := int(resp.PathID) == p.active
	ps.respSeq = max(ps.respSeq, resp.Seq)
	if resp.Kind == probe.KindFailure {
		// Explicit path-death notice (type-4 failure response): the
		// path's telemetry is void — it must not look like a fresh,
		// qualified candidate — and an active pair migrates right away
		// instead of accumulating timeout violations.
		ps.responded, ps.lastRespAt = false, 0
		ps.qualified, ps.subscription = false, math.Inf(1)
		if onActive && !p.idle {
			a.beginMigration(p)
		}
		return
	}
	ps.lastRespAt = now
	rtt := now - sim.Time(resp.SentAt)
	rttUS := rtt.Micros()
	a.hRTT.Observe(rttUS)
	if a.rec != nil {
		a.rec.Record(telemetry.Event{T: int64(now), Kind: telemetry.EvProbeRX,
			Entity: a.entity, A: int64(p.ID), B: int64(resp.PathID), V: rttUS,
			Trace: telemetry.SpanID(telemetry.TraceProbe, int64(p.ID), int64(resp.PathID), int64(resp.Seq)), Span: 3})
	}
	if ps.srtt == 0 && rtt > 0 {
		ps.srtt = rtt
	} else if rtt > 0 {
		ps.srtt = (7*ps.srtt + rtt) / 8
	}
	if resp.Kind != probe.KindResponse {
		return
	}
	p.peerPhi = resp.PeerPhi // 0 on the wire is unbound
	p.applyResponse(ps, resp)
	if !onActive {
		return
	}
	p.advanceRamp(now)
	backlogged := p.Demand != nil && p.Demand.Pending() > 0
	p.viol = p.viol.observe(now, ps.baseRTT, p.Delivered, p.Guarantee(), ps.qualified, backlogged)
	if p.viol.tripped() {
		a.beginMigration(p)
	}
	a.clockNextProbe(p, ps)
	a.scheduleSend()
}

// clockNextProbe sets the probing cadence after a response on the active
// path.
func (a *Agent) clockNextProbe(p *Pair, ps *pathState) {
	p.bytesSinceResp = 0
	if a.cfg.PeriodicProbeRTTs > 0 {
		a.eng.After(sim.Duration(a.cfg.PeriodicProbeRTTs)*ps.baseRTT, func() {
			if a.pairs[p.ID] == p && !p.idle {
				a.sendProbe(p, p.active, probe.KindProbe)
			}
		})
		return
	}
	// Self-clocked probing (§4.1): the next probe goes out with the data,
	// once L_w more bytes have been transmitted. No timer fallback — the
	// L_p/(L_p+L_w) overhead bound depends on probes being strictly
	// data-clocked.
	p.wantProbe = true
}

// ---- Migration ------------------------------------------------------------

// evalMode distinguishes why a candidate-path evaluation was started.
type evalMode uint8

const (
	// evalBootstrap is the initial path selection at AddPair.
	evalBootstrap evalMode = iota
	// evalViolation is §3.5 trigger (i): consistent guarantee violation.
	evalViolation
	// evalWorkConservation is §3.5 trigger (ii): the slow hunt for a
	// persistently better path.
	evalWorkConservation
)

// evaluate starts an evaluation round: probe the candidate paths in parallel
// — all of them at bootstrap, the idle ones afterwards — and decide when the
// responses are in (§3.5).
func (a *Agent) evaluate(p *Pair, mode evalMode) {
	p.migrating = true
	for i := range p.paths {
		if mode == evalBootstrap || i != p.active {
			a.sendProbe(p, i, probe.KindProbe)
		}
	}
	a.eng.After(2*p.maxBaseRTT(), func() { a.finishEvaluation(p, mode) })
}

// beginMigration is §3.5 trigger (i), at most once per freeze window and
// host.
func (a *Agent) beginMigration(p *Pair) {
	now := a.eng.Now()
	if p.migrating || len(p.paths) < 2 {
		return
	}
	if now < a.freezeUntil {
		a.cFrSupp.Inc()
		if a.rec != nil {
			a.rec.Record(telemetry.Event{T: int64(now), Kind: telemetry.EvFreeze,
				Entity: a.entity, A: int64(p.ID), Note: "suppressed"})
		}
		return
	}
	a.evaluate(p, evalViolation)
}

// scanForBetterPath drives §3.5 trigger (ii): every
// CandidateProbeInterval an active pair re-probes its candidates; a
// qualified path persistently offering a substantially larger share for
// BetterPathHold wins a (non-urgent) migration.
func (a *Agent) scanForBetterPath(p *Pair) {
	if a.pairs[p.ID] != p || p.idle || p.migrating || len(p.paths) < 2 {
		return
	}
	if p.Demand == nil || (p.Demand.Pending() == 0 && p.inflight == 0) {
		return
	}
	a.evaluate(p, evalWorkConservation)
}

// finishEvaluation applies the law's choice among the candidates with fresh
// responses. The mode decides fallback and freeze behavior: violation-
// triggered migrations may fall back to the least-subscribed unqualified path
// and arm the freeze window; work-conservation evaluations only move after a
// persistently better path is observed.
func (a *Agent) finishEvaluation(p *Pair, mode evalMode) {
	if a.pairs[p.ID] != p {
		return
	}
	now := a.eng.Now()
	p.migrating = false
	freshAge := 4 * p.maxBaseRTT()
	var best int
	if mode == evalWorkConservation {
		p.betterSince, best = betterPath(p.paths, p.active, now, freshAge, a.cfg.BetterPathHold, p.betterSince)
	} else {
		best = selectPath(p.paths, now, freshAge, true, a.rng)
		if best == -1 && mode == evalViolation {
			// No qualified path: an urgent migration settles for a
			// least-subscribed fresh one (best effort).
			best = selectPath(p.paths, now, freshAge, false, a.rng)
		}
	}
	switch {
	case best != -1 && best != p.active:
		a.migrate(p, best, mode == evalViolation)
	case mode == evalViolation, mode == evalBootstrap && best != -1:
		p.viol.streak = 0 // the evaluation answered for the active path
	}
	a.cleanupCandidates(p)
}

// cleanupCandidates sends finish probes on probed-but-unused candidate
// paths so their registered φ/w does not linger in the core.
func (a *Agent) cleanupCandidates(p *Pair) {
	for i, ps := range p.paths {
		if i != p.active && ps.responded {
			a.sendProbe(p, i, probe.KindFinish)
		}
	}
}

func (a *Agent) migrate(p *Pair, to int, urgent bool) {
	now := a.eng.Now()
	old := p.active
	a.sendProbe(p, old, probe.KindFinish)
	// Bytes still in flight on the old path are usually delivered and
	// acked normally; whatever remains after a drain timeout (e.g. the
	// old path failed) is declared lost and requeued.
	oldPS := p.paths[old]
	a.eng.After(sim.Duration(a.cfg.ProbeTimeoutRTTs)*oldPS.baseRTT, func() {
		a.reclaimOrphans(p, oldPS)
	})
	p.active = to
	p.Migrations++
	a.cMigr.Inc()
	migTrace := telemetry.SpanID(telemetry.TraceMigration, int64(p.ID), int64(p.Migrations))
	if a.rec != nil {
		note := "planned"
		if urgent {
			note = "urgent"
		}
		a.rec.Record(telemetry.Event{T: int64(now), Kind: telemetry.EvMigration,
			Entity: a.entity, A: int64(p.ID), B: int64(to), Note: note,
			Trace: migTrace, Span: 1})
	}
	p.viol = violation{at: now, delivered: p.Delivered}
	p.enterRamp(now, false) // Scenario-1 on the fresh path
	if a.cfg.ReorderFree {
		p.dataStartAt = now + p.paths[to].baseRTT
	}
	// Register on the new path immediately.
	a.sendProbe(p, to, probe.KindProbe)
	if urgent {
		// Freeze window: one migration per [1,N]-RTT window per host.
		n := 1 + a.rng.Intn(a.cfg.FreezeMaxRTTs)
		a.freezeUntil = now + sim.Duration(n)*p.paths[to].baseRTT
		a.cFrArmed.Inc()
		if a.rec != nil {
			a.rec.Record(telemetry.Event{T: int64(now), Kind: telemetry.EvFreeze,
				Entity: a.entity, A: int64(p.ID), B: int64(n), Note: "armed",
				Trace: migTrace, Span: 2})
		}
	}
	a.scheduleSend()
}

// ---- Guarantee Partitioning loop -------------------------------------------

// tokenUpdate runs every TokenPeriod: both sides of Algorithm 1 (law.go),
// each as gather → law → apply. Sender side, per VF with pairs here: their
// demands and admissions in, each pair's φ out. Receiver side, per VF with
// pairs arriving here: their requests in, each one's admission out, kept
// for the response to the pair's next probe. VFs are independent, so the
// order they are visited in is immaterial.
func (a *Agent) tokenUpdate() {
	period := a.cfg.TokenPeriod.Seconds()
	gp := &a.gp
	for c := range a.sched.classes {
		for _, vf := range a.sched.classes[c].populated {
			gp.pairs = gp.pairs[:0]
			for _, p := range vf.pairs {
				tp := tokenPair{pinned: p.phiManaged, phi: p.phi, demand: -1, admitted: p.peerPhi}
				// A pair that drained its demand and is not backlogged
				// is demand-bounded: its actual rate, in tokens.
				if p.Demand == nil {
					tp.demand = 0
				} else if p.Demand.Pending() == 0 {
					tp.demand = float64(p.txSinceToken*8) / period / BU
				}
				gp.pairs = append(gp.pairs, tp)
			}
			if gp.out = assignTokens(gp.out[:0], vf.hose, gp.pairs); len(gp.out) > 0 {
				for i, p := range vf.pairs {
					p.phi, p.txSinceToken = gp.out[i], 0
				}
			}
		}
	}
	now := a.eng.Now()
	for vm, rp := range a.recvPairs {
		if now-rp.lastSeen > 100*a.cfg.TokenPeriod {
			delete(a.recvPairs, vm)
			continue
		}
		reqs, ok := gp.byVF[rp.vf]
		if k := len(gp.spare); !ok && k > 0 {
			reqs, gp.spare = gp.spare[k-1], gp.spare[:k-1]
		}
		gp.byVF[rp.vf] = append(reqs, tokenRequest{vm, rp.requested})
	}
	for vf, reqs := range gp.byVF {
		if len(reqs) == 0 {
			// No pair of this VF since the last tick: forget it, and keep
			// its slice for the next VF that arrives.
			delete(gp.byVF, vf)
			gp.spare = append(gp.spare, reqs)
			continue
		}
		if tn := a.ten.byID[vf]; tn != nil && tn.hose > 0 {
			gp.out = admitTokens(gp.out[:0], tn.hose, reqs)
			for i, r := range reqs {
				rp := a.recvPairs[r.id]
				rp.admitted = gp.out[i]
				a.recvPairs[r.id] = rp
			}
		}
		gp.byVF[vf] = reqs[:0]
	}
}

// armRTO schedules a retransmission-timeout check: if no send or ack
// progress happens for ProbeTimeoutRTTs·baseRTT while bytes are in flight,
// the inflight bytes are assumed dropped and are requeued.
func (a *Agent) armRTO(p *Pair) {
	if p.rtoArmed {
		return
	}
	p.rtoArmed = true
	rto := sim.Duration(2*a.cfg.ProbeTimeoutRTTs) * p.paths[p.active].baseRTT
	a.arm(rto, rtoCheck, p, 0, 0, int64(rto))
}

func (a *Agent) checkRTO(p *Pair, rto sim.Duration) {
	p.rtoArmed = false
	if a.pairs[p.ID] != p || p.inflight == 0 {
		return
	}
	now := a.eng.Now()
	if since := now - p.lastProgress; since < rto {
		// Progress happened; re-check after the remaining time.
		p.rtoArmed = true
		a.arm(rto-since, rtoCheck, p, 0, 0, int64(rto))
		return
	}
	p.Losses++
	a.recoverInflight(p)
	a.scheduleSend()
}

// recoverInflight requeues all unacknowledged bytes (retransmission).
func (a *Agent) recoverInflight(p *Pair) {
	if p.inflight == 0 {
		return
	}
	if rq, ok := p.Demand.(Requeuer); ok {
		rq.Requeue(p.inflight)
	}
	p.inflight = 0
	for _, ps := range p.paths {
		ps.inflight = 0
	}
}

// reclaimOrphans declares bytes still unacknowledged on a no-longer-active
// path lost, requeueing them for retransmission on the current path.
func (a *Agent) reclaimOrphans(p *Pair, ps *pathState) {
	if a.pairs[p.ID] != p || ps == p.paths[p.active] || ps.inflight == 0 {
		return
	}
	lost := ps.inflight
	ps.inflight = 0
	p.inflight -= lost
	if p.inflight < 0 {
		p.inflight = 0
	}
	p.Losses++
	if rq, ok := p.Demand.(Requeuer); ok {
		rq.Requeue(lost)
	}
	a.scheduleSend()
}

// ---- Timers -----------------------------------------------------------------

// timerKind names the check a timer runs.
type timerKind uint8

const (
	probeTimeout timerKind = iota // checkProbeTimeout(p, path, seq)
	idleCheck                     // checkIdle(p, since)
	rtoCheck                      // checkRTO(p, rto)
)

// timer is one of the agent's one-shot checks as a record instead of a
// closure: a probe's loss check, a drained pair's idle check, a pair's RTO
// check. Its fire func is bound once, when the record is made; a fired
// record goes back on the agent's list and the next arm takes it, so arming
// allocates only while the number outstanding climbs to its high-water
// mark. 40 bytes, 56 with the bound func.
type timer struct {
	a    *Agent
	p    *Pair
	fire sim.Event
	arg  int64 // checkIdle's since, checkRTO's rto
	seq  uint32
	path uint16
	kind timerKind
}

// arm schedules one check after d on the agent's scheduler, exactly where
// the closure it replaces was scheduled, so no event key moves.
func (a *Agent) arm(d sim.Duration, kind timerKind, p *Pair, path int, seq uint32, arg int64) {
	var t *timer
	if k := len(a.timers); k > 0 {
		t = a.timers[k-1]
		a.timers = a.timers[:k-1]
	} else {
		t = &timer{a: a}
		t.fire = t.run
	}
	t.p, t.kind, t.path, t.seq, t.arg = p, kind, uint16(path), seq, arg
	a.eng.After(d, t.fire)
}

// run releases the record before running its check, which may arm the next
// one with it.
func (t *timer) run() {
	a, p, kind, path, seq, arg := t.a, t.p, t.kind, int(t.path), t.seq, t.arg
	t.p = nil
	a.timers = append(a.timers, t)
	switch kind {
	case probeTimeout:
		a.checkProbeTimeout(p, path, seq)
	case idleCheck:
		a.checkIdle(p, sim.Time(arg))
	case rtoCheck:
		a.checkRTO(p, sim.Duration(arg))
	}
}
