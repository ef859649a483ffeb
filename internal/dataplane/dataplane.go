// Package dataplane is the packet-level network substrate every experiment
// runs on: links with serialization and propagation delay, a single FIFO
// egress queue per switch port (μFAB needs no priority queues, §3.1),
// source-routed and ECMP forwarding, per-port telemetry (queue size and a
// windowed TX-rate estimator), ECN marking for the baselines, tail drops,
// and node failure injection.
//
// It stands in for the paper's hardware testbed and NS3: the evaluation's
// quantities (rates, RTTs, queue occupancy, FCT) are all network-level
// metrics that a discrete-event packet simulation reproduces.
package dataplane

import (
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// VMPair identifies a VM-to-VM traffic aggregate, the unit μFAB allocates
// bandwidth to.
type VMPair uint32

// Kind classifies packets for handlers and tracing.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
	Probe
	Response
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Probe:
		return "probe"
	case Response:
		return "response"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet is the unit of transmission. Packets are created by edge agents
// and mutated in place as they traverse the network (hop index, ECN mark,
// probe payload). A packet in flight is named by an id, which is what its
// arrival event carries (pktTable).
//
// Ownership. A packet from Network.NewPacket is pool-born: it belongs to the
// network from Send until the network hands it to a Handler, and the network
// takes it back when HandlePacket returns or at the site that drops it. A
// handler may read the packet it was handed, and may turn it around — Reply,
// then Send, before returning — which is how an edge answers data with an ack
// and a probe with its response in the same buffer; it must not keep a
// pointer to it, or to its Payload, past its return. A packet the caller
// built itself (&Packet{…}) is never recycled: the caller may keep it, read it
// after delivery and send it again, as tests and the benchmark do.
type Packet struct {
	// The fields are ordered by alignment — one- and two-byte fields, then
	// four-byte ids, then words and slices — so the struct's only padding is
	// the two bytes after PathID and the four after id: a new field goes
	// there, or next to the fields of its own size, not wherever it reads
	// best.
	Kind Kind
	// ECN is set by switches when the egress queue exceeds the marking
	// threshold; baselines use it as their congestion signal. ECNEcho is an
	// Ack's copy of the acknowledged data packet's mark, a header field no
	// switch on the way back touches.
	ECN, ECNEcho bool
	// state follows the packet through its journey.
	state pktState
	// PathID is the sender-side index of the candidate path the packet
	// travels (a real stack reads it from the SR header); an ack echoes it.
	PathID uint16
	VMPair VMPair
	Tenant int32
	// Dst is the destination host (required for ECMP, informative
	// otherwise).
	Dst topo.NodeID
	// at is the node the link the packet is currently on delivers it to.
	at topo.NodeID
	// id names the packet in the network's table: a pool-born packet keeps
	// the one NewPacket gave it when it made it (> 0); a caller-owned packet
	// holds ^id of one it borrowed for its current journey (< 0).
	id int32
	// Size is the on-wire size in bytes.
	Size int
	// Seq is a scheme-defined sequence number (bytes or packets).
	Seq uint64
	// Hop indexes the next link of Route to take.
	Hop int
	// SentAt is when the source emitted the packet (for RTT/latency).
	SentAt sim.Time
	// AckedBytes and AckedSentAt are an Ack's transport header: the size and
	// the SentAt of the data packet it acknowledges.
	AckedBytes  int
	AckedSentAt sim.Time
	// Rate is the baselines' rate header: the sender's weight in tokens on a
	// data packet, the receiver's grant in bits/s on its ack.
	Rate float64

	// Route is the source route as a sequence of link IDs. Empty Route means
	// ECMP forwarding to Dst.
	Route topo.Path
	// Return, if non-nil, is Route reversed: the route Reply gives the answer.
	// A sender that reverses each candidate path once fills it in so the far
	// edge reverses nothing per packet; nil makes Reply compute it.
	Return topo.Path
	// Payload carries an encoded probe (for Probe/Response packets). A
	// pool-born packet owns the buffer and keeps its capacity across reuse.
	Payload []byte
}

// pktState is where a pool-born packet is in its journey.
type pktState uint8

const (
	pktFree      pktState = iota // on a free list, or a caller's between journeys
	pktHeld                      // handed out by NewPacket, not sent yet
	pktInFlight                  // between Send and its delivery or drop
	pktDelivered                 // inside the destination's HandlePacket
)

// pktPool is one shard's free list, touched only in that shard's scheduling
// context. made counts the packets NewPacket had to make here because the
// list was empty; a packet made on one shard may retire onto another's list,
// so only the sums over shards compare (made − free = packets outstanding).
// Padded to a cache line: neighbouring shards run on different workers.
type pktPool struct {
	free []*Packet
	made int64
	_    [32]byte
}

// pktTable names packets by id, so a hop's arrival is the typed event
// (arrive, id): every pool-born packet under the id NewPacket gave it when
// it made it, and every caller-owned packet on a journey under an id it
// borrowed for that journey and gave back (spare) at its end. Id 0 names
// nothing, so a fresh packet's zero id is nobody's. Ids are handed out under
// mu by whichever shard makes or sends a packet; the shard its arrival fires
// on reads the table without a lock through view, all at full capacity,
// republished whenever appending moves it; a borrowed id is checked under mu
// (named).
type pktTable struct {
	mu    sync.Mutex
	all   []*Packet
	spare []int32
	view  atomic.Pointer[[]*Packet]
}

// add names pkt with a spare id if there is one, else a new id.
func (t *pktTable) add(pkt *Packet) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := len(t.spare); k > 0 {
		id := t.spare[k-1]
		t.spare = t.spare[:k-1]
		t.all[id] = pkt
		return id
	}
	grown := append(t.all, pkt)
	if cap(grown) != cap(t.all) {
		full := grown[:cap(grown)]
		t.view.Store(&full)
	}
	t.all = grown
	return int32(len(grown) - 1)
}

// giveBack ends a borrowed id's journey.
func (t *pktTable) giveBack(id int32) {
	t.mu.Lock()
	t.all[id] = nil
	t.spare = append(t.spare, id)
	t.mu.Unlock()
}

// named reports whether pkt holds an id naming it: it is pool-born, or
// caller-owned and on a journey. A value copy of either is not named.
func (t *pktTable) named(pkt *Packet) bool {
	if pkt.id < 0 {
		// A borrowed id may be a stale one another shard is giving back or
		// lending out right now: read its slot under the lock.
		t.mu.Lock()
		defer t.mu.Unlock()
		return int(^pkt.id) < len(t.all) && t.all[^pkt.id] == pkt
	}
	v := *t.view.Load() // a pool-born id's slot is written once, before pkt is seen
	return int(pkt.id) < len(v) && v[pkt.id] == pkt
}

// Handler receives packets delivered to a host.
type Handler interface {
	HandlePacket(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// HandlePacket calls f.
func (f HandlerFunc) HandlePacket(pkt *Packet) { f(pkt) }

// SwitchAgent is the per-switch processing hook (μFAB-C). OnForward runs
// when a packet is about to be enqueued on egress port out at a switch.
type SwitchAgent interface {
	OnForward(pkt *Packet, out *Port, now sim.Time)
}

// Config parameterizes a Network.
type Config struct {
	// QueueCapBytes is the per-port egress buffer; beyond it packets
	// tail-drop. 0 means a deep default (10 MB).
	QueueCapBytes int
	// ECNThresholdBytes marks packets ECN when the egress queue exceeds
	// it. 0 disables marking.
	ECNThresholdBytes int
	// ECMP selects the hash used by hash-based forwarding.
	ECMP ECMPMode
	// HashSeed perturbs the ECMP hash.
	HashSeed uint64
	// faultSeed seeds the RNG behind probabilistic link faults (random
	// loss, probe drop/corruption). Runs are deterministic per seed; the
	// RNG is only consulted while a probabilistic degradation is active,
	// so fault-free runs are bit-identical to pre-fault builds.
	faultSeed int64
	// Telemetry, if non-nil, receives per-link instruments (published by
	// FlushTelemetry) and drop events into its flight recorder. Enable
	// the recorder on the registry before calling New. Nil keeps every
	// hot-path instrument on the zero-cost nil fast path.
	Telemetry *telemetry.Registry
}

// ECMPMode selects how switches hash flows onto equal-cost next hops.
type ECMPMode uint8

// ECMP modes. Polarized applies the identical hash function at every tier
// (no per-switch entropy), reproducing the hash-polarization pathology of
// Fig 3; Independent mixes the switch ID into the hash.
const (
	Independent ECMPMode = iota
	Polarized
)

// Port is the egress side of a link: a FIFO queue plus telemetry.
type Port struct {
	Link *topo.Link
	// id, src, dst and prop copy the link's id, ends and propagation delay,
	// and shard is src's shard: the hop path reads the port, not the graph.
	id       topo.LinkID
	src, dst topo.NodeID
	shard    int32
	prop     sim.Duration
	// queue is a ring of the qlen packets waiting behind the one being
	// serialized, oldest at qhead; its length is a power of two. wire is the
	// packet being serialized (nil when the port is idle).
	queue       []*Packet
	qhead, qlen int
	queueBytes  int
	wire        *Packet
	// Telemetry.
	rate     rateEstimator
	capBytes int
	ecnBytes int
	// Drops counts tail-dropped packets.
	Drops uint64
	// FaultDrops counts packets lost to link faults (down or lossy).
	FaultDrops uint64
	// TxPackets and TxBytes count completed transmissions.
	TxPackets, TxBytes uint64
	// MaxQueueBytes tracks the high-water mark for queue CDFs.
	MaxQueueBytes int
}

// QueueBytes returns the bytes currently waiting in the egress queue
// (excluding the packet on the wire).
func (p *Port) QueueBytes() int { return p.queueBytes }

// Capacity returns the link line rate in bits/s.
func (p *Port) Capacity() float64 { return p.Link.Capacity }

// push appends pkt to the egress ring, doubling it when full.
func (p *Port) push(pkt *Packet) {
	if p.qlen == len(p.queue) {
		grown := make([]*Packet, max(4, 2*len(p.queue)))
		n := copy(grown, p.queue[p.qhead:])
		copy(grown[n:], p.queue[:p.qhead])
		p.queue, p.qhead = grown, 0
	}
	p.queue[(p.qhead+p.qlen)&(len(p.queue)-1)] = pkt
	p.qlen++
}

// pop removes the oldest queued packet, clearing its slot so the ring does
// not keep a delivered packet reachable.
func (p *Port) pop() *Packet {
	pkt := p.queue[p.qhead]
	p.queue[p.qhead] = nil
	p.qhead = (p.qhead + 1) & (len(p.queue) - 1)
	p.qlen--
	return pkt
}

// TxRate returns the estimated output rate in bits/s over the most recent
// estimator window, clamped to the line rate (the estimator's live-window
// blend can momentarily overshoot; a port cannot).
func (p *Port) TxRate(now sim.Time) float64 {
	r := p.rate.Rate(now)
	if r > p.Link.Capacity {
		return p.Link.Capacity
	}
	return r
}

// rateWindow is the TX-rate estimator's window.
const rateWindow = 16 * sim.Microsecond

// rateEstimator measures bytes sent in rotating windows; the reported rate
// is from the last completed window, blended with the live one, which is
// what a switch data plane computes with paired byte/time registers.
type rateEstimator struct {
	winStart   sim.Time
	winBytes   int64
	prevRate   float64 // bits/s of last completed window
	havePrev   bool
	totalBytes int64
}

func (r *rateEstimator) add(now sim.Time, bytes int) {
	r.roll(now)
	r.winBytes += int64(bytes)
	r.totalBytes += int64(bytes)
}

func (r *rateEstimator) roll(now sim.Time) {
	for now-r.winStart >= rateWindow {
		r.prevRate = float64(r.winBytes*8) / rateWindow.Seconds()
		r.havePrev = true
		r.winBytes = 0
		r.winStart += rateWindow
		if now-r.winStart >= 16*rateWindow {
			// Long idle gap: jump instead of looping.
			r.prevRate = 0
			r.winStart = now - (now-r.winStart)%rateWindow
		}
	}
}

// Rate returns the estimate in bits/s.
func (r *rateEstimator) Rate(now sim.Time) float64 {
	r.roll(now)
	if !r.havePrev {
		if now == r.winStart {
			return 0
		}
		return float64(r.winBytes*8) / (now - r.winStart).Seconds()
	}
	// Blend the completed window with the live partial window for
	// responsiveness at sub-window timescales.
	frac := float64(now-r.winStart) / float64(rateWindow)
	if frac <= 0 {
		return r.prevRate
	}
	live := float64(r.winBytes*8) / (now - r.winStart).Seconds()
	return r.prevRate*(1-frac) + live*frac
}

// Network simulates packet forwarding over a topology graph.
//
// Sharding: every node belongs to a logical shard (shardOf), and all state
// keyed by a node — its egress ports, queues, handlers, agents, per-shard RNG
// and recorder — is only ever touched from that shard's scheduling context.
// Under the plain constructor there is a single shard and a single context;
// under NewPartitioned the contexts are the shards of a partitioned
// sim.Engine, with cross-shard packet propagation handed off through its
// Send.
type Network struct {
	// Eng is the coordinator-context scheduler: use it for setup and for
	// globally scoped work (sampling, chaos). Per-node work must schedule on
	// NodeScheduler.
	Eng sim.Scheduler
	G   *topo.Graph
	Cfg Config

	Ports []Port // indexed by LinkID

	handlers []Handler     // indexed by NodeID (hosts)
	agents   []SwitchAgent // indexed by NodeID (switches)
	failed   []bool        // indexed by NodeID
	host     []bool        // indexed by NodeID
	faults   []linkFault   // indexed by LinkID

	// shardOf maps every node to its logical shard; scheds, faultRngs and
	// recs are indexed by shard. coord is the partitioned engine cross-shard
	// hops are sent through; nil under New, which has no second shard.
	shardOf   []int32
	scheds    []sim.Scheduler
	faultRngs []*mrand.Rand
	coord     *sim.Engine
	// pools[s] is shard s's packet free list (NewPacket, release). Nothing is
	// pre-filled: a list holds what its shard has retired, at most the peak
	// in-flight set. poison makes release scribble over what it takes back
	// (tests only: export_test.go).
	pools  []pktPool
	poison bool
	// pkts names packets for their arrivals; txKind and arriveKind are the
	// typed events of a hop, registered on every shard.
	pkts               pktTable
	txKind, arriveKind sim.Kind

	// dist[h] is the hop distance from every node to host h, for ECMP;
	// computed lazily per destination. distMu serializes the lazy fill,
	// which shards may race on.
	distMu sync.RWMutex
	dist   map[topo.NodeID][]int32

	// rec is the coordinator-context flight recorder (nil when telemetry is
	// off — recording into a nil recorder is a free no-op); recs[s] is the
	// recorder drop/fault events from shard s's links go to (all equal to
	// rec in a single-shard Network). linkEntity[l] is the precomputed
	// dotted instance name of link l ("link.core1-agg2"), so drop-path
	// recording never allocates.
	rec        *telemetry.Recorder
	recs       []*telemetry.Recorder
	linkEntity []string
	// instr[l] holds link l's instruments, resolved by the first
	// FlushTelemetry (not at construction: a fabric that never samples must
	// not populate the registry).
	instr []portInstruments

	// TotalDrops counts packets dropped anywhere (queue overflow, failed
	// node, or link fault). Updated atomically: drops happen in shard
	// context, and the global counters are the only dataplane state shared
	// across shards.
	TotalDrops uint64
	// FaultDrops counts the subset of TotalDrops caused by link faults.
	FaultDrops uint64
	// CorruptedProbes counts probe payloads mangled by a gray link.
	CorruptedProbes uint64
	// Trace, if non-nil, observes every host delivery (testing hook).
	Trace func(at topo.NodeID, pkt *Packet)
	// OnFailDrop, if non-nil, runs when a packet is dropped because its
	// next hop (or the local node, or the link between them) has failed.
	// `at` is the node that detects the drop (the switch whose BFD sees
	// the failure and can bounce a type-4 failure notification back to
	// the source); `failed` is the node that actually failed or became
	// unreachable. It runs in the detecting node's shard context.
	OnFailDrop func(pkt *Packet, at, failed topo.NodeID)
}

// faultSeedMix whitens the user-facing fault seed; shard 0 keeps the exact
// historical sequential stream so single-shard topologies reproduce old runs.
const faultSeedMix = 0x5fa017b8c2d94e63

// faultSeed derives shard s's fault-RNG seed from the configured seed — a
// pure function of (seed, shardID), never of worker count, so fault draws are
// identical across `-shards 0 … N`.
func faultSeed(seed int64, s int) int64 {
	x := uint64(seed) ^ faultSeedMix
	if s == 0 {
		return int64(x)
	}
	x += uint64(s) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	return int64(x ^ (x >> 33))
}

// newNetwork builds a Network over g whose node shardOf[v] runs on
// scheds[shardOf[v]], with eng the coordinator-context scheduler.
func newNetwork(eng sim.Scheduler, scheds []sim.Scheduler, shardOf []int32, g *topo.Graph, cfg Config) *Network {
	if cfg.QueueCapBytes == 0 {
		cfg.QueueCapBytes = 10 << 20
	}
	n := &Network{
		Eng:       eng,
		G:         g,
		Cfg:       cfg,
		Ports:     make([]Port, len(g.Links)),
		handlers:  make([]Handler, len(g.Nodes)),
		agents:    make([]SwitchAgent, len(g.Nodes)),
		failed:    make([]bool, len(g.Nodes)),
		host:      make([]bool, len(g.Nodes)),
		faults:    make([]linkFault, len(g.Links)),
		dist:      make(map[topo.NodeID][]int32),
		shardOf:   shardOf,
		scheds:    scheds,
		pools:     make([]pktPool, len(scheds)),
		faultRngs: make([]*mrand.Rand, len(scheds)),
		rec:       cfg.Telemetry.Recorder(),
		recs:      make([]*telemetry.Recorder, len(scheds)),
	}
	for i := range n.Ports {
		l := g.Link(topo.LinkID(i))
		n.Ports[i] = Port{Link: l, id: l.ID, src: l.Src, dst: l.Dst, shard: shardOf[l.Src], prop: l.PropDelay,
			capBytes: cfg.QueueCapBytes, ecnBytes: cfg.ECNThresholdBytes}
	}
	for i := range g.Nodes {
		n.host[i] = g.Nodes[i].Kind == topo.Host
	}
	for i, sched := range scheds {
		n.faultRngs[i] = stats.NewRand(faultSeed(cfg.faultSeed, i))
		n.recs[i] = n.rec // unless the registry holds one recorder per shard
		n.txKind = sched.Register("dataplane.txDone", n.finishTx)
		n.arriveKind = sched.Register("dataplane.arrive", n.arrive)
	}
	n.pkts.add(nil) // id 0
	if cfg.Telemetry != nil {
		n.linkEntity = make([]string, len(g.Links))
		for i := range n.linkEntity {
			l := g.Link(topo.LinkID(i))
			n.linkEntity[i] = "link." + telemetry.Token(g.Node(l.Src).Name) +
				"-" + telemetry.Token(g.Node(l.Dst).Name)
		}
	}
	return n
}

// New builds a Network over g driven by eng, with all nodes in one logical
// shard — the classic sequential dataplane.
func New(eng sim.Scheduler, g *topo.Graph, cfg Config) *Network {
	return newNetwork(eng, []sim.Scheduler{eng}, make([]int32, len(g.Nodes)), g, cfg)
}

// NewPartitioned builds a Network whose scheduling contexts follow a
// topology partition: one scheduler, fault-RNG stream and flight recorder
// per logical shard of eng, which must have been partitioned to match. How
// many workers execute the shards is eng's business and changes no output.
func NewPartitioned(eng *sim.Engine, part *topo.Partition, g *topo.Graph, cfg Config) *Network {
	if len(part.Node) != len(g.Nodes) {
		panic(fmt.Sprintf("dataplane: partition covers %d nodes, graph has %d", len(part.Node), len(g.Nodes)))
	}
	if eng.Shards() != part.Shards {
		panic(fmt.Sprintf("dataplane: engine has %d shards, partition %d", eng.Shards(), part.Shards))
	}
	scheds := make([]sim.Scheduler, part.Shards)
	for i := range scheds {
		scheds[i] = eng.Shard(i)
	}
	n := newNetwork(eng, scheds, part.Node, g, cfg)
	n.coord = eng
	// Declare the shard pairs cross-shard propagation will use.
	for _, l := range g.Links {
		eng.Connect(int(part.Node[l.Src]), int(part.Node[l.Dst]))
	}
	copy(n.recs, cfg.Telemetry.ShardRecorders())
	return n
}

// Shards returns the number of logical shards (1 for the plain constructor).
func (n *Network) Shards() int { return len(n.scheds) }

// NodeScheduler returns the scheduler for node id's shard context — the
// clock all work attached to that node (agents, workloads, host timers) must
// schedule on.
func (n *Network) NodeScheduler(id topo.NodeID) sim.Scheduler {
	return n.scheds[n.shardOf[id]]
}

// RecorderAt returns the flight recorder of node id's shard (nil when
// telemetry is off): where everything attached to that node — its ports'
// drops, its μFAB-C and μFAB-E agents — records.
func (n *Network) RecorderAt(id topo.NodeID) *telemetry.Recorder { return n.recs[n.shardOf[id]] }

// FlightRecorder returns the run-trace recorder drop events go to (nil
// when telemetry is off); chaos injection records its faults there too.
func (n *Network) FlightRecorder() *telemetry.Recorder { return n.rec }

// linkEnt returns link l's dotted instance name, or "" without telemetry.
func (n *Network) linkEnt(l topo.LinkID) string {
	if n.linkEntity == nil {
		return ""
	}
	return n.linkEntity[l]
}

// LinkEntity returns link l's dotted instance name ("link.core1-agg2"),
// or "" when telemetry is disabled.
func (n *Network) LinkEntity(l topo.LinkID) string { return n.linkEnt(l) }

// portInstruments are one link's instruments in the attached registry.
type portInstruments struct {
	txBytes, txGbps, hiwater, drops, faultDrops *telemetry.Gauge
	qlen                                        *telemetry.Series
	qdepth                                      *telemetry.Histogram
}

// FlushTelemetry publishes per-link instruments — cumulative TX bytes,
// windowed TX rate, queue high-water, drop counts, and a queue-depth time
// series point — to the attached registry. It runs at sampling time (the
// vfabric meter interval), never on the per-packet path; a no-op when
// telemetry is disabled. The first call resolves every link's instruments by
// name; a tick after that builds no name and looks nothing up.
func (n *Network) FlushTelemetry(now sim.Time) {
	reg := n.Cfg.Telemetry
	if reg == nil {
		return
	}
	if n.instr == nil {
		n.instr = make([]portInstruments, len(n.Ports))
		for i, ent := range n.linkEntity {
			n.instr[i] = portInstruments{
				txBytes:    reg.Gauge(ent + ".tx_bytes"),
				txGbps:     reg.Gauge(ent + ".tx_gbps"),
				hiwater:    reg.Gauge(ent + ".qlen_hiwater_bytes"),
				drops:      reg.Gauge(ent + ".drops"),
				faultDrops: reg.Gauge(ent + ".fault_drops"),
				qlen:       reg.Series(ent+".qlen_bytes", 0),
				qdepth:     reg.Histogram(ent + ".qdepth_bytes"),
			}
		}
	}
	for i := range n.Ports {
		p, in := &n.Ports[i], &n.instr[i]
		in.txBytes.Set(float64(p.TxBytes))
		in.txGbps.Set(p.TxRate(now) / 1e9)
		in.hiwater.SetMax(float64(p.MaxQueueBytes))
		in.drops.Set(float64(p.Drops))
		in.faultDrops.Set(float64(p.FaultDrops))
		in.qlen.Add(int64(now), float64(p.queueBytes))
		in.qdepth.Observe(float64(p.queueBytes))
	}
}

// Port returns the egress port of link l.
func (n *Network) Port(l topo.LinkID) *Port { return &n.Ports[l] }

// SetHandler installs the packet handler for a host node.
func (n *Network) SetHandler(host topo.NodeID, h Handler) {
	if n.G.Node(host).Kind != topo.Host {
		panic(fmt.Sprintf("dataplane: SetHandler on non-host %d", host))
	}
	n.handlers[host] = h
}

// SetSwitchAgent installs the per-node forwarding agent (μFAB-C). It may
// also be attached to a host node, in which case it observes the host's
// uplink egress — the "μFAB-C in the hypervisor" deployment of §6.
func (n *Network) SetSwitchAgent(sw topo.NodeID, a SwitchAgent) {
	n.agents[sw] = a
}

// validNode reports whether id indexes a real node.
func (n *Network) validNode(id topo.NodeID) bool {
	return int(id) >= 0 && int(id) < len(n.failed)
}

// FailNode marks a node as failed: packets arriving at it or queued to
// leave it are dropped. Fig 15 fails Core1 at t = 90 ms. An out-of-range
// id is a no-op returning false rather than a panic mid-simulation.
// The transition is recorded as an EvFault on the coordinator recorder —
// the event stream the ctlplane reconciler subscribes to for node health.
func (n *Network) FailNode(id topo.NodeID) bool {
	if !n.validNode(id) {
		return false
	}
	n.failed[id] = true
	n.recordNodeFault(id, 1, "fail") // B=1: node is down
	return true
}

// RecoverNode clears a failure (false for out-of-range ids).
func (n *Network) RecoverNode(id topo.NodeID) bool {
	if !n.validNode(id) {
		return false
	}
	n.failed[id] = false
	n.recordNodeFault(id, 0, "recover")
	return true
}

// recordNodeFault emits the node up/down transition. Fail/recover calls
// originate in coordinator context (chaos fires at coordinator barriers),
// so the event goes to the coordinator recorder with coordinator time and
// is identical for every worker count.
func (n *Network) recordNodeFault(id topo.NodeID, down int64, note string) {
	if n.rec == nil {
		return
	}
	n.rec.Record(telemetry.Event{T: int64(n.Eng.Now()), Kind: telemetry.EvFault,
		Entity: "dataplane.node", A: int64(id), B: down, Note: note})
}

// Failed reports whether a node is failed (false for out-of-range ids).
func (n *Network) Failed(id topo.NodeID) bool {
	return n.validNode(id) && n.failed[id]
}

// NewPacket hands out a pool-born packet for a sender at node at: zeroed but
// for its payload buffer, which is empty and keeps the capacity it grew to.
// It comes off the free list of at's shard, so it must be called in that
// shard's scheduling context (or the coordinator's, at a barrier); the list
// is empty until packets have been retired, and then a new one is made.
func (n *Network) NewPacket(at topo.NodeID) *Packet {
	pool := &n.pools[n.shardOf[at]]
	if k := len(pool.free); k > 0 {
		pkt := pool.free[k-1]
		pool.free = pool.free[:k-1]
		*pkt = Packet{Payload: pkt.Payload[:0], id: pkt.id, state: pktHeld}
		return pkt
	}
	pool.made++
	pkt := &Packet{state: pktHeld}
	pkt.id = n.pkts.add(pkt)
	return pkt
}

// release ends a journey at the node where it ended (delivered and not
// turned around, or dropped): a pool-born packet goes back onto that node's
// shard's list, a caller-owned one gives its borrowed id back and is left
// alone. It runs after every observer of the packet (Trace, the handler,
// OnFailDrop, the drop's trace event).
func (n *Network) release(pkt *Packet, at topo.NodeID) {
	pkt.state = pktFree
	if pkt.id < 0 {
		n.pkts.giveBack(^pkt.id)
		return
	}
	if n.poison {
		poisonPacket(pkt)
	}
	pool := &n.pools[n.shardOf[at]]
	pool.free = append(pool.free, pkt)
}

// poisonPacket scribbles over every header field of a released packet so
// that anyone still reading it reads nonsense: an impossible kind, path and
// destination, no route, both ECN bits flipped, garbage in the payload.
func poisonPacket(pkt *Packet) {
	pkt.Kind, pkt.Size, pkt.VMPair, pkt.Tenant = 0xff, -1, ^VMPair(0), -1
	pkt.Route, pkt.Return, pkt.Hop = nil, nil, -1
	pkt.Seq, pkt.SentAt, pkt.AckedBytes, pkt.AckedSentAt = ^uint64(0), -1, -1, -1
	pkt.Rate, pkt.PathID, pkt.Dst = -1, ^uint16(0), -1
	pkt.ECN, pkt.ECNEcho = !pkt.ECN, !pkt.ECNEcho
	full := pkt.Payload[:cap(pkt.Payload)]
	for i := range full {
		full[i] = 0xa5
	}
}

// ReturnRoute returns the reverse of the first hops links of pkt's route: the
// way back from wherever those links led. It is a suffix of pkt.Return when
// the sender filled that in, and computed otherwise.
func (n *Network) ReturnRoute(pkt *Packet, hops int) topo.Path {
	if pkt.Return != nil {
		return pkt.Return[len(pkt.Route)-hops:]
	}
	return n.G.ReversePath(pkt.Route[:hops])
}

// Reply returns the packet the handler at host at answers pkt with, routed
// back along pkt's route: pkt itself when it is pool-born — turned around in
// place, payload and all, as an edge's hardware does — and otherwise a fresh
// pool-born packet with a copy of pkt's identity and payload, so the
// caller's packet stays as it was delivered. The handler sets Kind, Size,
// SentAt and the answer's header fields, and Sends it before returning.
func (n *Network) Reply(pkt *Packet, at topo.NodeID) *Packet {
	back := n.ReturnRoute(pkt, len(pkt.Route))
	r := pkt
	if pkt.id < 0 {
		r = n.NewPacket(at)
		r.VMPair, r.Tenant, r.PathID = pkt.VMPair, pkt.Tenant, pkt.PathID
		r.Payload = append(r.Payload, pkt.Payload...)
	}
	r.Route, r.Return = back, pkt.Route
	r.Seq, r.ECN = 0, false
	return r
}

// Send injects a source-routed packet at the source of its route's first
// link. The caller must have set Route; Hop must be 0.
func (n *Network) Send(pkt *Packet) {
	if len(pkt.Route) == 0 {
		panic("dataplane: Send without route (use SendECMP)")
	}
	pkt.Hop = 0
	pkt.Dst = n.G.PathDst(pkt.Route)
	n.inject(pkt)
	n.enqueue(pkt, pkt.Route[0])
}

// SendECMP injects a packet at src to be hash-forwarded to pkt.Dst.
func (n *Network) SendECMP(pkt *Packet, src topo.NodeID) {
	pkt.Route = nil
	n.inject(pkt)
	next := n.ecmpNext(src, pkt)
	if next == topo.NoLink {
		atomic.AddUint64(&n.TotalDrops, 1)
		n.release(pkt, src)
		return
	}
	n.enqueue(pkt, next)
}

// inject starts a journey. A packet its id names — pool-born, or
// caller-owned and being turned around by its handler — must be the sender's
// to send: held since NewPacket, or delivered. Any other packet is a
// caller-owned one (or a value copy) setting out, and borrows an id.
func (n *Network) inject(pkt *Packet) {
	if !n.pkts.named(pkt) {
		pkt.id = ^n.pkts.add(pkt)
	} else if pkt.state == pktFree || pkt.state == pktInFlight {
		panic("dataplane: Send of a packet the network owns")
	}
	pkt.state = pktInFlight
}

func (n *Network) enqueue(pkt *Packet, lid topo.LinkID) {
	port := &n.Ports[lid]
	sched := n.scheds[port.shard]
	if n.failed[port.src] || n.failed[port.dst] {
		atomic.AddUint64(&n.TotalDrops, 1)
		if rec := n.recs[port.shard]; rec != nil {
			rec.Record(telemetry.Event{T: int64(sched.Now()), Kind: telemetry.EvDrop,
				Entity: n.linkEntity[lid], A: int64(pkt.Kind), Note: "failed"})
		}
		if n.OnFailDrop != nil {
			// Report the node that actually failed; when the local node
			// itself is dead that is Src, otherwise the far end.
			failed := port.dst
			if n.failed[port.src] {
				failed = port.src
			}
			n.OnFailDrop(pkt, port.src, failed)
		}
		n.release(pkt, port.src)
		return
	}
	if !n.faultFilter(pkt, port) {
		n.release(pkt, port.src)
		return
	}
	// Switch agent hook (INT read/write) fires at enqueue time on
	// switch egress.
	if ag := n.agents[port.src]; ag != nil {
		ag.OnForward(pkt, port, sched.Now())
	}
	// ECN marking on queue buildup.
	if port.ecnBytes > 0 && port.queueBytes >= port.ecnBytes {
		pkt.ECN = true
	}
	if port.queueBytes+pkt.Size > port.capBytes {
		port.Drops++
		atomic.AddUint64(&n.TotalDrops, 1)
		if rec := n.recs[port.shard]; rec != nil {
			rec.Record(telemetry.Event{T: int64(sched.Now()), Kind: telemetry.EvDrop,
				Entity: n.linkEntity[lid], A: int64(pkt.Kind),
				B: int64(port.queueBytes), Note: "overflow"})
		}
		n.release(pkt, port.src)
		return
	}
	port.queueBytes += pkt.Size
	if port.queueBytes > port.MaxQueueBytes {
		port.MaxQueueBytes = port.queueBytes
	}
	if port.wire == nil {
		n.startTx(port, pkt)
	} else {
		port.push(pkt)
	}
}

// startTx puts pkt on the wire of an idle port. A hop schedules the same two
// events at the same instants as ever — transmit-complete after the
// serialization delay, arrival after the propagation delay — as typed events
// (txDone, link) and (arrive, packet), which allocate nothing.
func (n *Network) startTx(port *Port, pkt *Packet) {
	port.queueBytes -= pkt.Size
	port.wire = pkt
	ser := topo.SerializationDelay(pkt.Size, n.effectiveCapacity(port))
	n.scheds[port.shard].Post(ser, n.txKind, int32(port.id))
}

// finishTx runs when link lid's port has serialized its packet.
func (n *Network) finishTx(lid int32) {
	port := &n.Ports[lid]
	pkt := port.wire
	port.wire = nil
	sched := n.scheds[port.shard]
	port.TxPackets++
	port.TxBytes += uint64(pkt.Size)
	port.rate.add(sched.Now(), pkt.Size)
	// Propagate to the far end (a gray fault may add latency). A
	// cross-shard hop hands the arrival to the destination shard's heap;
	// the partition guarantees prop is at least the lookahead window.
	pkt.at = port.dst
	prop := port.prop + n.faults[lid].deg.ExtraDelay
	if dd := n.shardOf[port.dst]; dd != port.shard {
		n.coord.Send(int(port.shard), int(dd), prop, n.arriveKind, max(pkt.id, ^pkt.id))
	} else {
		sched.Post(prop, n.arriveKind, max(pkt.id, ^pkt.id))
	}
	if port.qlen > 0 {
		n.startTx(port, port.pop())
	}
}

// arrive runs when packet id reaches the node its link delivers it to.
func (n *Network) arrive(id int32) {
	pkt := (*n.pkts.view.Load())[id]
	at := pkt.at
	if n.failed[at] {
		atomic.AddUint64(&n.TotalDrops, 1)
		n.release(pkt, at)
		return
	}
	if n.host[at] {
		pkt.state = pktDelivered
		if n.Trace != nil {
			n.Trace(at, pkt)
		}
		if h := n.handlers[at]; h != nil {
			h.HandlePacket(pkt)
		}
		// Still delivered: the handler did not turn it around (a packet it
		// sent again is in flight, or already dropped and released).
		if pkt.state == pktDelivered {
			n.release(pkt, at)
		}
		return
	}
	// Switch: forward.
	var next topo.LinkID
	if len(pkt.Route) > 0 {
		pkt.Hop++
		if pkt.Hop >= len(pkt.Route) {
			atomic.AddUint64(&n.TotalDrops, 1) // route exhausted before reaching a host
			n.release(pkt, at)
			return
		}
		next = pkt.Route[pkt.Hop]
		if n.Ports[next].src != at {
			panic(fmt.Sprintf("dataplane: route hop %d link %d does not start at node %d", pkt.Hop, next, at))
		}
	} else {
		next = n.ecmpNext(at, pkt)
		if next == topo.NoLink {
			atomic.AddUint64(&n.TotalDrops, 1)
			n.release(pkt, at)
			return
		}
	}
	n.enqueue(pkt, next)
}

// distTo returns (computing if needed) hop distances from all nodes to dst.
// Shards race on the lazy fill, so the map is guarded: reads take the shared
// lock, a miss recomputes under the exclusive one.
func (n *Network) distTo(dst topo.NodeID) []int32 {
	n.distMu.RLock()
	d, ok := n.dist[dst]
	n.distMu.RUnlock()
	if ok {
		return d
	}
	n.distMu.Lock()
	defer n.distMu.Unlock()
	if d, ok := n.dist[dst]; ok {
		return d
	}
	const inf = int32(1) << 30
	d = make([]int32, len(n.G.Nodes))
	for i := range d {
		d[i] = inf
	}
	d[dst] = 0
	queue := []topo.NodeID{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		// Incoming links of v are reverses of v's out links (duplex).
		for _, lid := range n.G.Node(v).Out {
			rev := n.G.Link(lid).Reverse
			if rev == topo.NoLink {
				continue
			}
			u := n.G.Link(rev).Src
			if d[u] > d[v]+1 {
				d[u] = d[v] + 1
				queue = append(queue, u)
			}
		}
	}
	n.dist[dst] = d
	return d
}

func (n *Network) ecmpNext(at topo.NodeID, pkt *Packet) topo.LinkID {
	d := n.distTo(pkt.Dst)
	out := n.G.Node(at).Out
	eligible := func(lid topo.LinkID) bool {
		to := n.G.Link(lid).Dst
		return d[to] == d[at]-1 && !n.failed[to] && !n.faults[lid].down
	}
	candidates := uint64(0)
	for _, lid := range out {
		if eligible(lid) {
			candidates++
		}
	}
	if candidates == 0 {
		return topo.NoLink
	}
	h := ecmpHash(uint64(pkt.VMPair), n.Cfg.HashSeed)
	if n.Cfg.ECMP == Independent {
		// Mix per-switch entropy in, as independent hash functions do.
		h = ecmpHash(h^uint64(at)*0x9e3779b97f4a7c15, n.Cfg.HashSeed)
	}
	// Second pass: the (h mod candidates)-th eligible out-link.
	pick := h % candidates
	for _, lid := range out {
		if eligible(lid) {
			if pick == 0 {
				return lid
			}
			pick--
		}
	}
	panic("dataplane: ecmpNext: eligible link vanished between passes")
}

func ecmpHash(x, seed uint64) uint64 {
	x ^= seed
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// LinkUtilization returns TX bytes on link l as a fraction of what the link
// could have carried in [0, now].
func (n *Network) LinkUtilization(l topo.LinkID, now sim.Time) float64 {
	if now == 0 {
		return 0
	}
	p := &n.Ports[l]
	return float64(p.TxBytes*8) / (p.Link.Capacity * now.Seconds())
}

// SwitchQueueHighWaters returns, in port order, the egress-queue high-water
// mark in bytes of every port a switch transmits on (host uplinks queue in
// the sender's NIC, not in the fabric, and are excluded).
func (n *Network) SwitchQueueHighWaters() []int {
	var marks []int
	for i := range n.Ports {
		p := &n.Ports[i]
		if n.G.Node(p.Link.Src).Kind == topo.Switch {
			marks = append(marks, p.MaxQueueBytes)
		}
	}
	return marks
}
