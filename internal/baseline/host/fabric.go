package host

import (
	"fmt"
	"math/rand"

	"ufab/internal/dataplane"
	"ufab/internal/flowsrc"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
)

// Fabric assembles a baseline deployment over a topology, mirroring
// vfabric.Fabric for the alternatives: a baseline Agent per host and a
// μFAB-C telemetry agent per switch (the probes feeding Clove's explicit
// utilization need the informative switches; the baselines simply ignore
// the subscription fields).
type Fabric struct {
	Eng   *sim.Engine
	Graph *topo.Graph
	Net   *dataplane.Network
	Cfg   Config

	Agents map[topo.NodeID]*Agent
	Flows  []*FlowHandle

	// MeterInterval is the per-flow rate meter resolution (default 500 μs).
	MeterInterval sim.Duration

	nextVM dataplane.VMPair
	rng    *rand.Rand
}

// FlowHandle bundles a baseline flow with its demand buffer and meter,
// matching vfabric.Flow's measurement surface.
type FlowHandle struct {
	Flow   *Flow
	Demand flowsrc.Source
	// Buffer is non-nil when the flow was created with AddFlow.
	Buffer *flowsrc.Buffer
	Meter  *stats.RateMeter
}

// Rate returns acknowledged throughput in bits/s averaged over [from, to].
func (fh *FlowHandle) Rate(from, to sim.Time) float64 {
	return fh.Meter.Series.MeanOver(from, to)
}

// NewFabric builds the baseline deployment. dpCfg.ECNThresholdBytes
// defaults to 65 MTUs (the usual DCTCP-style marking point) because
// ElasticSwitch's rate probing needs ECN.
func NewFabric(eng *sim.Engine, g *topo.Graph, cfg Config, dpCfg dataplane.Config) *Fabric {
	cfg.setDefaults()
	if dpCfg.ECNThresholdBytes == 0 {
		dpCfg.ECNThresholdBytes = 65 * mtu
	}
	f := &Fabric{
		Eng:           eng,
		Graph:         g,
		Net:           dataplane.New(eng, g, dpCfg),
		Cfg:           cfg,
		Agents:        make(map[topo.NodeID]*Agent),
		MeterInterval: 500 * sim.Microsecond,
		rng:           stats.NewRand(cfg.Seed ^ 0x626c6662),
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case topo.Switch:
			f.Net.SetSwitchAgent(n.ID, ufabc.New(ufabc.Config{}))
		case topo.Host:
			f.Agents[n.ID] = newAgent(eng, f.Net, n.ID, cfg)
		}
	}
	return f
}

// AddFlow creates a VM-pair with the given token weight (guarantee =
// weight·BU) using up to maxPaths equal-cost paths (0 = all, as Clove
// spreads over every equivalent path).
func (f *Fabric) AddFlow(vf int32, weight float64, src, dst topo.NodeID, maxPaths int) *FlowHandle {
	buf := &flowsrc.Buffer{}
	fh := f.AddFlowDemand(vf, weight, src, dst, maxPaths, buf)
	fh.Buffer = buf
	return fh
}

// AddFlowDemand is AddFlow with a caller-supplied demand source.
func (f *Fabric) AddFlowDemand(vf int32, weight float64, src, dst topo.NodeID, maxPaths int, demand flowsrc.Source) *FlowHandle {
	if maxPaths <= 0 {
		maxPaths = 8
	}
	routes := f.Graph.SamplePaths(src, dst, maxPaths, f.rng)
	if len(routes) == 0 {
		panic(fmt.Sprintf("baseline/host: no path %d→%d", src, dst))
	}
	return f.AddFlowRoutes(vf, weight, routes, demand)
}

// AddFlowRoutes creates a flow over an explicit candidate-path set.
func (f *Fabric) AddFlowRoutes(vf int32, weight float64, routes []topo.Path, demand flowsrc.Source) *FlowHandle {
	src := f.Graph.PathSrc(routes[0])
	dst := f.Graph.PathDst(routes[0])
	f.nextVM++
	fl := f.Agents[src].AddFlow(FlowConfig{
		ID:     f.nextVM,
		VF:     vf,
		Weight: weight,
		Dst:    dst,
		Routes: routes,
		Demand: demand,
	})
	fh := &FlowHandle{
		Flow:   fl,
		Demand: demand,
		Meter:  stats.NewRateMeter(fmt.Sprintf("bl-vf%d-%d", vf, f.nextVM), f.MeterInterval),
	}
	f.Flows = append(f.Flows, fh)
	return fh
}

// SampleRates flushes flow meters up to now.
func (f *Fabric) SampleRates() {
	now := f.Eng.Now()
	for _, fh := range f.Flows {
		fh.Meter.AddTotal(now, fh.Flow.Delivered)
	}
}

// StartSampling arranges for SampleRates to run every interval.
func (f *Fabric) StartSampling(interval sim.Duration) (stop func()) {
	return f.Eng.Every(interval, f.SampleRates)
}
