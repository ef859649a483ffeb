// Package vfabric assembles a complete μFAB deployment over a simulated
// data center: a discrete-event engine, a topology, the packet dataplane,
// one μFAB-C agent per switch (and optionally per host hypervisor, §6),
// and one μFAB-E agent per host. It exposes the tenant-facing service
// model: create VFs with hose-model minimum-bandwidth guarantees, attach
// VM-pairs with demands, run, and measure.
//
// This is the package downstream users import; the experiment harness and
// the examples are built on it.
package vfabric

import (
	"fmt"
	"math/rand"
	"slices"

	"ufab/internal/audit"
	"ufab/internal/dataplane"
	"ufab/internal/probe"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
	"ufab/internal/ufabe"
)

// Config parameterizes a Fabric.
type Config struct {
	// Edge configures every μFAB-E agent.
	Edge ufabe.Config
	// Core configures every μFAB-C agent.
	Core ufabc.Config
	// MeterInterval is the per-flow rate meter resolution (default
	// 500 μs; reaction-time experiments use finer).
	MeterInterval sim.Duration
	// Seed drives path-candidate selection and the edge agents.
	Seed int64
	// Telemetry, if non-nil, attaches the unified registry to every layer
	// of the fabric: per-link dataplane instruments, μFAB-C/μFAB-E agent
	// counters, and the flight recorder (which must be enabled on the
	// registry before New so drop/probe/migration events are captured).
	// Instruments are published at sampling time by SampleRates.
	Telemetry *telemetry.Registry
	// Audit, if non-nil, attaches the online predictability auditor: every
	// SampleRates tick is checked against the min-bandwidth, work
	// conservation, queue-bound and register-accounting invariants, with
	// findings reported into Audit.Log (a fresh log when nil — read it
	// back via AuditLog). Requires Telemetry; enable the registry's flight
	// recorder so chaos faults open excused windows.
	Audit *audit.Config
	// Ledger, if non-nil, exposes the admission control plane's committed
	// per-link subscription to the auditor: every audit tick compares the
	// realized Φ_l register against the ledger's commitment (the
	// ledger_bound invariant). Only meaningful when every tenant routes
	// through the admission controller — force-admitted tenants consume
	// guarantee the ledger never committed.
	Ledger SubscriptionLedger
}

// candidatePaths bounds how many underlay paths each VM-pair monitors (§3.5
// "it randomly chooses a few of them"); candidates are sampled uniformly
// from the equal-cost set.
const candidatePaths = 4

// SubscriptionLedger is the read side of the admission control plane's
// per-link Σ-guarantee accounting (internal/placement.Ledger implements
// it). vfabric depends only on this interface, keeping the packages
// cycle-free.
type SubscriptionLedger interface {
	// CommittedBps returns the admitted Σ-guarantee currently committed on
	// the link, in bits per second.
	CommittedBps(topo.LinkID) float64
}

// VF is a tenant virtual fabric with a hose-model guarantee.
type VF struct {
	ID int32
	// GuaranteeBps is the per-vNIC hose minimum bandwidth.
	GuaranteeBps float64
	// WeightClass is the WFQ class (0..7).
	WeightClass int

	pairs []*Flow
}

// Flow is one VM-pair of a VF, the unit of allocation and measurement.
type Flow struct {
	VF   *VF
	Pair *ufabe.Pair
	// Demand is the flow's traffic source.
	Demand ufabe.Demand
	// Buffer is the demand buffer when the flow was created with
	// AddFlow; nil for custom demands (AddFlowDemand).
	Buffer *ufabe.Buffer
	// Meter samples acknowledged throughput.
	Meter *stats.RateMeter
}

// Fabric is an assembled μFAB deployment.
type Fabric struct {
	// Eng is the driver of the fabric's simulation: the *sim.Engine the
	// fabric was assembled on — plain under New, partitioned under Build.
	// It is also the coordinator scheduling context — experiment-level
	// timelines (sampling, chaos, tenant churn) schedule here and run at
	// global barriers with exclusive access to all shards' state. Per-host
	// traffic must instead schedule on HostScheduler.
	Eng   sim.Driver
	Graph *topo.Graph
	Net   *dataplane.Network
	Cfg   Config

	Edges map[topo.NodeID]*ufabe.Agent
	Cores map[topo.NodeID]*ufabc.Agent

	VFs   map[int32]*VF
	Flows []*Flow

	nextVM dataplane.VMPair
	rng    *rand.Rand
	// ten is the fabric's one tenant table, shared by every edge agent.
	ten     ufabe.Tenancy
	vfOrder []int32
	aud     *auditState
	// linkRegs[l] is where FlushTelemetry publishes link l's Φ_l and W_l.
	linkRegs []linkRegisters
	// partitioned marks fabrics assembled by Build over a pod partition;
	// they suppress per-heap gauges whose values depend on when cross-shard
	// events reach the destination heap (at once inline, via rings with
	// workers).
	partitioned bool
}

// linkRegisters is a link's source μFAB-C agent (nil when the node runs none)
// and the two gauges its registers are published to.
type linkRegisters struct {
	core        *ufabc.Agent
	phi, window *telemetry.Gauge
}

// normalize fills the config's defaults in place.
func normalize(cfg *Config) {
	if cfg.MeterInterval == 0 {
		cfg.MeterInterval = 500 * sim.Microsecond
	}
	cfg.Edge.Seed = cfg.Seed
}

// New assembles a fabric over the topology: μFAB-C on every switch and, so
// the host uplink contributes INT records, on every host (the hypervisor
// deployment of §6); μFAB-E on every host. The whole fabric runs as one
// scheduling context on eng; Build is the shard-aware constructor.
func New(eng sim.Driver, g *topo.Graph, cfg Config) *Fabric {
	normalize(&cfg)
	return assemble(eng, dataplane.New(eng, g, dataplane.Config{Telemetry: cfg.Telemetry}), g, cfg)
}

// assemble wires the agents of a fabric onto an already constructed
// dataplane. Each node's agents take that node's shard scheduler for their
// timers and, from the network, that shard's flight recorder for their
// telemetry, so every per-node event they ever produce stays inside the shard
// that owns the node. (On a single-shard dataplane both collapse to the
// engine and base recorder, preserving the classic construction exactly.)
func assemble(drv sim.Driver, net *dataplane.Network, g *topo.Graph, cfg Config) *Fabric {
	f := &Fabric{
		Eng:   drv,
		Graph: g,
		Net:   net,
		Cfg:   cfg,
		Edges: make(map[topo.NodeID]*ufabe.Agent),
		Cores: make(map[topo.NodeID]*ufabc.Agent),
		VFs:   make(map[int32]*VF),
		rng:   stats.NewRand(cfg.Seed ^ 0x76666162),
	}
	f.Net.OnFailDrop = f.bounceFailure
	for _, n := range g.Nodes {
		ag := ufabc.New(cfg.Core)
		ag.AttachTelemetry(cfg.Telemetry, telemetry.Token(n.Name), f.Net.RecorderAt(n.ID))
		f.Net.SetSwitchAgent(n.ID, ag)
		f.Cores[n.ID] = ag
		if n.Kind == topo.Host {
			e := ufabe.New(f.Net.NodeScheduler(n.ID), f.Net, n.ID, cfg.Edge, &f.ten)
			e.AttachTelemetry(cfg.Telemetry, telemetry.Token(n.Name))
			f.Edges[n.ID] = e
		}
	}
	f.initAudit(&cfg)
	return f
}

// HostScheduler returns the scheduling context that owns a host: workload
// drivers feeding that host's demand at simulated times (rather than from
// the coordinator's barriers) must schedule on it so the traffic runs
// inside the host's shard.
func (f *Fabric) HostScheduler(host topo.NodeID) sim.Scheduler {
	return f.Net.NodeScheduler(host)
}

// bounceFailure converts a probe dropped at a dead hop into the
// Appendix-G type-4 failure response, returned to the source along the
// reverse of the prefix it already traversed. The source edge treats it
// as an immediate path-death signal instead of waiting out the probe
// timeout. `at` is the detecting switch (which must itself be alive to
// bounce anything); `failed` is the node that actually died, unused here
// because the type-4 response identifies the path, not the hop.
func (f *Fabric) bounceFailure(pkt *dataplane.Packet, at, failed topo.NodeID) {
	if pkt.Kind != dataplane.Probe || len(pkt.Payload) == 0 || pkt.Hop <= 0 {
		return
	}
	if f.Graph.Node(at).Kind != topo.Switch || f.Net.Failed(at) {
		return
	}
	fail, _, err := probe.DecodeHeader(pkt.Payload)
	if err != nil || fail.Kind != probe.KindProbe {
		return
	}
	fail.Kind = probe.KindFailure
	// The dropped probe goes back to the network when this returns; the
	// notice is a packet of the detecting switch's own.
	resp := f.Net.NewPacket(at)
	resp.Payload, _ = fail.Encode(resp.Payload) // a known kind and no hops: always encodes
	resp.Kind, resp.VMPair, resp.Tenant = dataplane.Response, pkt.VMPair, pkt.Tenant
	resp.Size, resp.SentAt = probe.WireSize(0), f.Net.NodeScheduler(at).Now()
	resp.Route = f.Net.ReturnRoute(pkt, pkt.Hop)
	f.Net.Send(resp)
}

// Edge returns the μFAB-E agent of a host.
func (f *Fabric) Edge(host topo.NodeID) *ufabe.Agent { return f.Edges[host] }

// AddVF registers a tenant VF with the given hose guarantee in the fabric's
// tenant table, which every edge reads (an edge keeps sender state only for
// the VFs it sources pairs of). It panics on a malformed registration (duplicate id, non-positive
// guarantee, weight class outside the WFQ range) — the same rules the
// mid-run AddTenant path rejects with false.
func (f *Fabric) AddVF(id int32, guaranteeBps float64, weightClass int) *VF {
	if err := f.validateVF(id, guaranteeBps, weightClass); err != nil {
		panic(err.Error())
	}
	f.ten.Add(id, guaranteeBps/ufabe.BU, weightClass)
	vf := &VF{ID: id, GuaranteeBps: guaranteeBps, WeightClass: weightClass}
	f.VFs[id] = vf
	f.vfOrder = append(f.vfOrder, id)
	return vf
}

// AddFlow creates a VM-pair of vf from src to dst with the given initial
// token share of the VF's guarantee (tokens = guarantee/BU when 0). It
// samples up to candidatePaths equal-cost underlay paths.
func (f *Fabric) AddFlow(vf *VF, src, dst topo.NodeID, phi float64) *Flow {
	buf := &ufabe.Buffer{}
	fl := f.AddFlowDemand(vf, src, dst, phi, buf)
	fl.Buffer = buf
	return fl
}

// AddFlowDemand is AddFlow with a caller-supplied demand source (e.g. a
// workload.Messages tracker for FCT measurement). It panics on invalid
// endpoints — the same checks AddTenant's pair validation applies.
func (f *Fabric) AddFlowDemand(vf *VF, src, dst topo.NodeID, phi float64, demand ufabe.Demand) *Flow {
	if err := f.validatePair(src, dst); err != nil {
		panic(err.Error())
	}
	routes := f.Graph.SamplePaths(src, dst, candidatePaths, f.rng)
	if len(routes) == 0 {
		panic(fmt.Sprintf("vfabric: no path %d→%d", src, dst))
	}
	return f.AddFlowRoutes(vf, routes, phi, demand)
}

// AddFlowRoutes creates a VM-pair over an explicit candidate-path set
// (experiments use it to pin flows to specific underlay paths).
func (f *Fabric) AddFlowRoutes(vf *VF, routes []topo.Path, phi float64, demand ufabe.Demand) *Flow {
	src := f.Graph.PathSrc(routes[0])
	dst := f.Graph.PathDst(routes[0])
	if phi == 0 {
		phi = vf.GuaranteeBps / ufabe.BU
	}
	f.nextVM++
	pair := f.Edges[src].AddPair(ufabe.PairConfig{
		ID:     f.nextVM,
		VF:     vf.ID,
		Dst:    dst,
		Routes: routes,
		Phi:    phi,
		Demand: demand,
	})
	fl := &Flow{
		VF:     vf,
		Pair:   pair,
		Demand: demand,
		Meter:  stats.NewRateMeter(fmt.Sprintf("vf%d-pair%d", vf.ID, f.nextVM), f.Cfg.MeterInterval),
	}
	vf.pairs = append(vf.pairs, fl)
	f.Flows = append(f.Flows, fl)
	return fl
}

// SampleRates flushes every flow's rate meter up to now; call it
// periodically (or once at the end) so Meter series cover the run.
func (f *Fabric) SampleRates() {
	now := f.Eng.Now()
	for _, fl := range f.Flows {
		fl.Meter.AddTotal(now, fl.Pair.Delivered)
	}
	f.FlushTelemetry()
	f.auditTick()
}

// FlushTelemetry publishes fabric-level instruments to the attached
// registry: per-link dataplane gauges/series, per-link Φ_l/W_l registers
// from the link's source μFAB-C agent, engine scheduling stats, and the
// fabric-wide fault aggregates. It runs from SampleRates (the meter
// interval) and is a no-op when telemetry is disabled.
func (f *Fabric) FlushTelemetry() {
	reg := f.Cfg.Telemetry
	if reg == nil {
		return
	}
	now := f.Eng.Now()
	f.Net.FlushTelemetry(now)
	if f.linkRegs == nil {
		// Resolved by the first flush, as the dataplane's are: a tick after
		// it builds no name and looks nothing up.
		f.linkRegs = make([]linkRegisters, len(f.Graph.Links))
		for i := range f.linkRegs {
			lid := topo.LinkID(i)
			if c := f.Cores[f.Graph.Link(lid).Src]; c != nil {
				ent := f.Net.LinkEntity(lid)
				f.linkRegs[i] = linkRegisters{c, reg.Gauge(ent + ".phi_tokens"), reg.Gauge(ent + ".window_bytes")}
			}
		}
	}
	for i := range f.linkRegs {
		if lr := &f.linkRegs[i]; lr.core != nil {
			phi, w := lr.core.Subscription(topo.LinkID(i))
			lr.phi.Set(phi)
			lr.window.Set(float64(w))
		}
	}
	if src, ok := f.Eng.(sim.StatsSource); ok {
		es := src.Stats()
		reg.Gauge("sim.engine.events_processed").Set(float64(es.Processed))
		reg.Gauge("sim.engine.pending").Set(float64(es.Pending))
		// Processed and pending count logical events, so they are identical
		// for every worker count. Queue peaks and arena sizes are not — an
		// event in flight between shards sits in a ring under workers and
		// in the destination heap without — so partitioned fabrics skip
		// them to keep snapshots bit-identical for every -shards value.
		if !f.partitioned {
			reg.Gauge("sim.engine.peak_pending").Set(float64(es.PeakPending))
			reg.Gauge("sim.engine.arena_slots").Set(float64(es.ArenaSlots))
		}
	}
	fs := f.FaultStats()
	reg.Gauge("vfabric.faults.migrations").Set(float64(fs.Migrations))
	reg.Gauge("vfabric.faults.freezes_armed").Set(float64(fs.FreezesArmed))
	reg.Gauge("vfabric.faults.freeze_suppressed").Set(float64(fs.FreezeSuppressed))
	reg.Gauge("vfabric.faults.core_restarts").Set(float64(fs.CoreRestarts))
	reg.Gauge("vfabric.faults.fault_drops").Set(float64(fs.FaultDrops))
	reg.Gauge("vfabric.faults.corrupted_probes").Set(float64(fs.CorruptedProbes))
}

// StartSampling arranges for SampleRates to run every interval.
func (f *Fabric) StartSampling(interval sim.Duration) (stop func()) {
	return f.Eng.Every(interval, f.SampleRates)
}

// StartCoreCleanup starts the silent-quit cleanup loop on every μFAB-C,
// each on its own node's shard scheduler (node order keeps the schedule
// deterministic).
func (f *Fabric) StartCoreCleanup() {
	for _, n := range f.Graph.Nodes {
		if c := f.Cores[n.ID]; c != nil {
			c.StartCleanup(f.Net.NodeScheduler(n.ID))
		}
	}
}

// Rate returns the flow's acknowledged throughput in bits/s averaged over
// [from, to].
func (fl *Flow) Rate(from, to sim.Time) float64 {
	return fl.Meter.Series.MeanOver(from, to)
}

// ProbeOverhead returns probe bytes as a fraction of total (probe + data)
// bytes sent across all edges — the Fig 15b metric.
func (f *Fabric) ProbeOverhead() float64 {
	var probeB, dataB uint64
	for _, e := range f.Edges {
		probeB += e.ProbeBytesCount()
		dataB += e.DataBytesCount()
	}
	if probeB+dataB == 0 {
		return 0
	}
	return float64(probeB) / float64(probeB+dataB)
}

// MaxQueueBytes returns the largest egress queue high-water mark across
// all switch ports (host uplinks excluded).
func (f *Fabric) MaxQueueBytes() int {
	// The appended 0 answers for a fabric without a switch port.
	return slices.Max(append(f.Net.SwitchQueueHighWaters(), 0))
}
