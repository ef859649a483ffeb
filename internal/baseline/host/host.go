// Package host wires the baseline schemes onto the simulated dataplane:
// one Agent per host plays the role μFAB-E plays for μFAB, but drives
// either PicNIC′+WCC+Clove (PWC) or ElasticSwitch+Clove (§5.1
// "Alternatives"). Both use Clove's utilization-oriented flowlet load
// balancing fed by explicit path-utilization probes; PWC adds sender WFQ,
// receiver-driven admission grants and the Swift-based weighted window;
// ES+Clove paces each VM-pair at the ElasticSwitch RA rate (never below
// its guarantee) with ECN feedback.
//
// Config selects the scheme, the seed and Clove's flowlet gap — what the
// evaluation varies. Packet sizes, the bandwidth unit, the probing and
// admission periods and the transports' AIMD constants (packages wcc and
// elasticswitch) are constants: one value was ever in use. Fabric measures
// flows with the routines vfabric.Fabric uses (stats.RateMeter.AddTotal,
// topo.Graph.SamplePaths, dataplane.Network.SwitchQueueHighWaters).
package host

import (
	"fmt"
	"math/rand"
	"slices"

	"ufab/internal/baseline/clove"
	"ufab/internal/baseline/elasticswitch"
	"ufab/internal/baseline/picnic"
	"ufab/internal/baseline/wcc"
	"ufab/internal/dataplane"
	"ufab/internal/flowsrc"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
)

// Scheme selects the baseline combination an Agent runs.
type Scheme uint8

// The two baseline combinations of the evaluation.
const (
	// PWC is PicNIC′ + WCC + Clove.
	PWC Scheme = iota
	// ESClove is ElasticSwitch + Clove.
	ESClove
)

func (s Scheme) String() string {
	if s == PWC {
		return "PicNIC'+WCC+Clove"
	}
	return "ES+Clove"
}

// Config parameterizes a baseline host agent.
type Config struct {
	Scheme Scheme
	// CloveGap is the flowlet gap (default 200 μs; Fig 5 also uses 36 μs).
	CloveGap sim.Duration
	// Seed drives Clove tie-breaking.
	Seed int64
}

// The constants of the evaluation's baselines.
const (
	// bu converts tokens to bandwidth, bits/s.
	bu = 100e6
	// mtu and ackSize are packet sizes in bytes.
	mtu, ackSize = 1500, 64
	// targetUtilization bounds receiver admission.
	targetUtilization = 0.95
	// utilProbeInterval is how often active flows refresh per-path
	// utilization for Clove.
	utilProbeInterval = 100 * sim.Microsecond
	// admissionWindow is the PicNIC′ receiver measurement window.
	admissionWindow = 100 * sim.Microsecond
	// rtoRTTs is the loss-recovery timeout in baseRTTs.
	rtoRTTs = 16
)

func (c *Config) setDefaults() {
	if c.CloveGap == 0 {
		c.CloveGap = 200 * sim.Microsecond
	}
}

// FlowConfig describes a VM-pair for AddFlow.
type FlowConfig struct {
	ID dataplane.VMPair
	VF int32
	// Weight is the pair's bandwidth tokens; guarantee = Weight·BU.
	Weight float64
	Dst    topo.NodeID
	Routes []topo.Path
	Demand flowsrc.Source
}

// Flow is the sender-side state of one baseline VM-pair.
type Flow struct {
	ID     dataplane.VMPair
	VF     int32
	Weight float64
	Dst    topo.NodeID

	agent   *Agent
	routes  []topo.Path
	baseRTT []sim.Duration
	// back[i] is routes[i] reversed: what acks and probe responses of path i
	// return on (dataplane.Packet.Return).
	back []topo.Path
	lb   *clove.State

	demand flowsrc.Source

	// PWC state.
	wf    *wcc.Flow
	grant float64 // receiver-driven rate cap, bits/s; 0 = uncapped

	// ES state.
	ra *elasticswitch.RA

	inflight int64
	paceNext sim.Time
	seq      uint64

	vservice float64 // WFQ virtual service (normalized bytes)

	lastProgress sim.Time
	rtoArmed     bool

	// Measurements (mirroring ufabe.Pair: RTT records only once a reader
	// attaches one).
	Delivered int64
	SentBytes int64
	RTT       *stats.Samples
	Losses    int
}

// Guarantee returns the flow's minimum-bandwidth guarantee in bits/s.
func (fl *Flow) Guarantee() float64 { return fl.Weight * bu }

// CurrentPath returns the index of the flowlet's current path.
func (fl *Flow) CurrentPath() int { return fl.lb.Current() }

// Rate returns the transport's current rate view in bits/s: the RA rate
// for ES, cwnd/baseRTT for PWC.
func (fl *Flow) Rate() float64 {
	if fl.agent.cfg.Scheme == ESClove {
		return fl.ra.Rate
	}
	return fl.wf.Cwnd * 8 / fl.baseRTT[fl.lb.Current()].Seconds()
}

type recvState struct {
	weight float64
	bytes  int64
	grant  float64
}

// Agent is a per-host baseline agent; it implements dataplane.Handler.
type Agent struct {
	eng   *sim.Engine
	net   *dataplane.Network
	graph *topo.Graph
	host  topo.NodeID
	cfg   Config
	rng   *rand.Rand

	flows map[dataplane.VMPair]*Flow
	order []*Flow

	nicNextFree sim.Time
	sendTimer   sim.Handle
	timerActive bool
	wakeAt      sim.Time
	uplinkCap   float64
	// fire is the send timer's callback, bound once so arming it allocates
	// nothing.
	fire sim.Event

	recv map[dataplane.VMPair]*recvState
	// resp is handleUtilResponse's decode target, reused across responses.
	resp probe.Packet

	// OnReceive observes data arriving at this host (application hook).
	OnReceive func(vm dataplane.VMPair, bytes int, now sim.Time)
}

// New creates a baseline agent on a host and installs it as the host's
// handler. Receiver-side admission (PWC) starts immediately.
func New(eng *sim.Engine, net *dataplane.Network, hostID topo.NodeID, cfg Config) *Agent {
	cfg.setDefaults()
	g := net.G
	if g.Node(hostID).Kind != topo.Host {
		panic(fmt.Sprintf("baseline/host: node %d is not a host", hostID))
	}
	a := &Agent{
		eng:       eng,
		net:       net,
		graph:     g,
		host:      hostID,
		cfg:       cfg,
		rng:       stats.NewRand(cfg.Seed + int64(hostID)*0x7f4a7c15),
		flows:     make(map[dataplane.VMPair]*Flow),
		recv:      make(map[dataplane.VMPair]*recvState),
		uplinkCap: g.Link(g.Node(hostID).Out[0]).Capacity,
	}
	a.fire = func() {
		a.timerActive = false
		a.trySend()
	}
	net.SetHandler(hostID, a)
	if cfg.Scheme == PWC {
		eng.Every(admissionWindow, a.admissionUpdate)
	}
	return a
}

// Flow returns a sender-side flow by id, or nil.
func (a *Agent) Flow(id dataplane.VMPair) *Flow { return a.flows[id] }

// AddFlow registers a VM-pair and starts its utilization probing.
func (a *Agent) AddFlow(fc FlowConfig) *Flow {
	if len(fc.Routes) == 0 {
		panic("baseline/host: AddFlow without routes")
	}
	fl := &Flow{
		ID:     fc.ID,
		VF:     fc.VF,
		Weight: fc.Weight,
		Dst:    fc.Dst,
		agent:  a,
		routes: fc.Routes,
		demand: fc.Demand,
		lb: clove.New(len(fc.Routes), clove.Config{
			FlowletGap: a.cfg.CloveGap,
			Seed:       a.cfg.Seed + int64(fc.ID),
		}),
	}
	for _, r := range fc.Routes {
		fl.baseRTT = append(fl.baseRTT, a.graph.BaseRTT(r, mtu))
		fl.back = append(fl.back, a.graph.ReversePath(r))
	}
	switch a.cfg.Scheme {
	case PWC:
		// Greedy initial window: one path BDP — the burst behavior
		// Case-1 (Fig 4) attributes to guarantee-agnostic transports. The
		// delay target is 1.5× the first path's baseRTT.
		bdp := a.graph.MinCapacity(fc.Routes[0]) * fl.baseRTT[0].Seconds() / 8
		fl.wf = wcc.NewFlow(fl.baseRTT[0]*3/2, fc.Weight, bdp)
	case ESClove:
		// The rate is capped at the uplink capacity.
		fl.ra = elasticswitch.New(a.uplinkCap, fl.Guarantee())
	}
	a.flows[fc.ID] = fl
	a.order = append(a.order, fl)
	if k, ok := fc.Demand.(flowsrc.Kicker); ok {
		k.SetKick(func() { a.scheduleSend() })
	}
	// Clove's explicit utilization feedback loop.
	a.eng.Every(utilProbeInterval, func() { a.probeUtil(fl) })
	a.probeUtil(fl)
	a.scheduleSend()
	return fl
}

// probeUtil sends one utilization probe per candidate path for an active
// flow (Clove-INT style feedback).
func (a *Agent) probeUtil(fl *Flow) {
	if fl.demand.Pending() == 0 && fl.inflight == 0 {
		return
	}
	for i, route := range fl.routes {
		pp := probe.Packet{
			Kind:   probe.KindProbe,
			VMPair: uint32(fl.ID),
			PathID: uint16(i),
			SentAt: int64(a.eng.Now()),
		}
		// Encoded into the packet's own buffer, with room for the path's INT
		// records, as ufabe.sendProbe.
		pkt := a.net.NewPacket(a.host)
		if need := probe.PayloadSize(len(route)); cap(pkt.Payload) < need {
			pkt.Payload = make([]byte, 0, need)
		}
		pkt.Payload, _ = pp.Encode(pkt.Payload) // a probe of no hops always encodes
		pkt.Kind, pkt.VMPair, pkt.Tenant = dataplane.Probe, fl.ID, fl.VF
		pkt.Size, pkt.SentAt = probe.WireSize(0), a.eng.Now()
		pkt.Route, pkt.Return, pkt.PathID = route, fl.back[i], uint16(i)
		a.net.Send(pkt)
	}
}

// ---- Sending ---------------------------------------------------------------

// wakeup (re)arms the single send timer to fire no later than at. Exactly
// one timer is ever outstanding; an earlier request cancels and replaces a
// later one.
func (a *Agent) wakeup(at sim.Time) {
	if now := a.eng.Now(); at < now {
		at = now
	}
	if a.timerActive {
		if a.wakeAt <= at {
			return
		}
		a.eng.Cancel(a.sendTimer)
	}
	a.timerActive = true
	a.wakeAt = at
	a.sendTimer = a.eng.At(at, a.fire)
}

func (a *Agent) scheduleSend() { a.wakeup(a.nicNextFree) }

func (fl *Flow) eligible(now sim.Time) bool {
	if fl.demand.Pending() <= 0 {
		return false
	}
	switch fl.agent.cfg.Scheme {
	case PWC:
		if fl.inflight >= int64(fl.wf.Cwnd) {
			return false
		}
		return now >= fl.paceNext // receiver grant pacing
	default: // ESClove: pure rate pacing
		return now >= fl.paceNext
	}
}

// nextEligible picks the eligible flow with the least normalized WFQ
// service (sender-side weighted fair queueing, PicNIC′'s envelope; ES
// flows are rate-paced so the pick order hardly matters).
func (a *Agent) nextEligible(now sim.Time) *Flow {
	var best *Flow
	for _, fl := range a.order {
		if !fl.eligible(now) {
			continue
		}
		if best == nil || fl.vservice < best.vservice {
			best = fl
		}
	}
	return best
}

func (a *Agent) trySend() {
	now := a.eng.Now()
	if now < a.nicNextFree {
		a.scheduleSend()
		return
	}
	fl := a.nextEligible(now)
	if fl == nil {
		// Wake when the earliest paced flow becomes ready.
		var wake sim.Time = -1
		for _, f := range a.order {
			if f.demand.Pending() > 0 && f.paceNext > now {
				if wake < 0 || f.paceNext < wake {
					wake = f.paceNext
				}
			}
		}
		if wake > 0 {
			a.wakeup(wake)
		}
		return
	}
	size := int64(mtu)
	if pend := fl.demand.Pending(); pend < size {
		size = pend
	}
	if a.cfg.Scheme == PWC {
		if room := int64(fl.wf.Cwnd) - fl.inflight; room < size {
			size = room
		}
	}
	if size <= 0 {
		return
	}
	fl.demand.Consume(size)
	fl.inflight += size
	fl.SentBytes += size
	fl.seq++
	fl.lastProgress = now
	a.armRTO(fl)
	path := fl.lb.Pick(now)
	pkt := a.net.NewPacket(a.host)
	pkt.Kind, pkt.VMPair, pkt.Tenant = dataplane.Data, fl.ID, fl.VF
	pkt.Size, pkt.Seq, pkt.SentAt = int(size), fl.seq, now
	pkt.Route, pkt.Return, pkt.PathID = fl.routes[path], fl.back[path], uint16(path)
	pkt.Rate = fl.Weight
	a.net.Send(pkt)
	if fl.Weight > 0 {
		fl.vservice += float64(size) / fl.Weight
	}
	// Pacing.
	switch a.cfg.Scheme {
	case PWC:
		if fl.grant > 0 {
			next := now + sim.Duration(float64(size*8)/fl.grant*float64(sim.Second))
			if fl.paceNext < now {
				fl.paceNext = next
			} else {
				fl.paceNext += next - now
			}
		}
	case ESClove:
		gap := sim.Duration(float64(size*8) / fl.ra.Rate * float64(sim.Second))
		if fl.paceNext < now {
			fl.paceNext = now + gap
		} else {
			fl.paceNext += gap
		}
	}
	a.nicNextFree = now + topo.SerializationDelay(int(size), a.uplinkCap)
	a.scheduleSend()
}

// ---- Receiving -------------------------------------------------------------

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
		a.handleUtilResponse(pkt)
	}
}

func (a *Agent) handleData(pkt *dataplane.Packet) {
	now := a.eng.Now()
	if a.OnReceive != nil {
		a.OnReceive(pkt.VMPair, pkt.Size, now)
	}
	var grant float64
	if a.cfg.Scheme == PWC {
		rs := a.recv[pkt.VMPair]
		if rs == nil {
			rs = &recvState{}
			a.recv[pkt.VMPair] = rs
		}
		rs.weight = pkt.Rate
		rs.bytes += int64(pkt.Size)
		grant = rs.grant
	}
	// The data packet turns around as its ack, which echoes its size, send
	// time and ECN mark.
	bytes, sentAt, ecn := pkt.Size, pkt.SentAt, pkt.ECN
	ack := a.net.Reply(pkt, a.host)
	ack.Kind, ack.Size, ack.SentAt = dataplane.Ack, ackSize, now
	ack.AckedBytes, ack.AckedSentAt, ack.ECNEcho, ack.Rate = bytes, sentAt, ecn, grant
	a.net.Send(ack)
}

func (a *Agent) handleAck(pkt *dataplane.Packet) {
	fl := a.flows[pkt.VMPair]
	if fl == nil {
		return
	}
	now := a.eng.Now()
	bytes := pkt.AckedBytes
	fl.inflight -= int64(bytes)
	if fl.inflight < 0 {
		fl.inflight = 0
	}
	fl.lastProgress = now
	fl.Delivered += int64(bytes)
	rtt := now - pkt.AckedSentAt
	if fl.RTT != nil {
		fl.RTT.Add(rtt.Micros())
	}
	switch a.cfg.Scheme {
	case PWC:
		fl.wf.OnAck(now, rtt, bytes)
		fl.grant = pkt.Rate
	case ESClove:
		fl.ra.OnAck(now, rtt, bytes, pkt.ECNEcho)
	}
	if obs, ok := fl.demand.(flowsrc.DeliveryObserver); ok {
		obs.Delivered(int64(bytes), now)
	}
	a.scheduleSend()
}

// handleProbe answers utilization probes at the destination: the probe turns
// around as its own response, flipped in its buffer.
func (a *Agent) handleProbe(pkt *dataplane.Packet) {
	if pp, _, err := probe.DecodeHeader(pkt.Payload); err != nil || pp.Kind != probe.KindProbe {
		return
	}
	resp := a.net.Reply(pkt, a.host)
	resp.Payload, _ = probe.FlipToResponse(resp.Payload, 0) // framed as DecodeHeader just accepted it
	resp.Kind, resp.SentAt = dataplane.Response, a.eng.Now()
	resp.Size = pkt.Size
	a.net.Send(resp)
}

// handleUtilResponse feeds explicit path utilization into Clove.
func (a *Agent) handleUtilResponse(pkt *dataplane.Packet) {
	fl := a.flows[pkt.VMPair]
	if fl == nil {
		return
	}
	resp := &a.resp
	if _, err := probe.DecodeInto(resp, pkt.Payload); err != nil || int(resp.PathID) >= len(fl.routes) {
		return
	}
	util := 0.0
	for _, h := range resp.Hops {
		if h.Capacity <= 0 {
			continue
		}
		u := h.TxRate / h.Capacity
		// Queue buildup marks a path hot even before tx saturates.
		u += float64(h.Queue) * 8 / (h.Capacity * fl.baseRTT[resp.PathID].Seconds())
		if u > util {
			util = u
		}
	}
	fl.lb.SetUtil(int(resp.PathID), util)
}

// admissionUpdate runs every admissionWindow at PWC receivers: measure
// per-pair demand, grant weighted max-min rates when oversubscribed. The
// demands go to picnic.Allocate in VMPair order, not map order: the
// water-fill sums them in input order, and a float sum's last place depends
// on it.
func (a *Agent) admissionUpdate() {
	if len(a.recv) == 0 {
		return
	}
	ids := make([]dataplane.VMPair, 0, len(a.recv))
	for id := range a.recv {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	demands := make([]picnic.Demand, len(ids))
	order := make([]*recvState, len(ids))
	for i, id := range ids {
		rs := a.recv[id]
		demands[i] = picnic.Demand{Weight: rs.weight, Bytes: rs.bytes}
		order[i] = rs
		rs.bytes = 0
	}
	grants := picnic.Allocate(targetUtilization*a.uplinkCap, admissionWindow, demands)
	for i, rs := range order {
		if grants == nil {
			rs.grant = 0
		} else {
			rs.grant = grants[i]
		}
	}
}

// ---- Loss recovery ----------------------------------------------------------

func (a *Agent) armRTO(fl *Flow) {
	if fl.rtoArmed {
		return
	}
	fl.rtoArmed = true
	rto := rtoRTTs * fl.baseRTT[0]
	a.eng.After(rto, func() { a.checkRTO(fl, rto) })
}

func (a *Agent) checkRTO(fl *Flow, rto sim.Duration) {
	fl.rtoArmed = false
	if fl.inflight == 0 {
		return
	}
	now := a.eng.Now()
	if since := now - fl.lastProgress; since < rto {
		fl.rtoArmed = true
		a.eng.After(rto-since, func() { a.checkRTO(fl, rto) })
		return
	}
	fl.Losses++
	if rq, ok := fl.demand.(flowsrc.Requeuer); ok {
		rq.Requeue(fl.inflight)
	}
	fl.inflight = 0
	switch a.cfg.Scheme {
	case PWC:
		fl.wf.OnLoss()
	case ESClove:
		fl.ra.OnLoss(now)
	}
	a.scheduleSend()
}

// Repicks returns how many flowlet-boundary path changes Clove made for
// this flow (the oscillation diagnostic of Fig 5c).
func (fl *Flow) Repicks() int { return fl.lb.Repicks }
