package vfabric

import (
	"fmt"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/token"
	"ufab/internal/topo"
	"ufab/internal/ufabe"
)

// MultiFlow is a VM-pair spread over several underlay paths per Appendix F
// of the paper. Each path is carried by one μFAB subflow (pinned to its
// path); the pair's total token is split across the paths with
// Algorithm 2 (equal split, demand-bounded paths boosted, spare
// redistributed) every rebalance period. In high-bisection fabrics a
// single dynamic path suffices (§6), but oversubscribed DCNs need multiple
// underlay paths to reach the pair's full allocation — which is exactly
// what this type demonstrates.
type MultiFlow struct {
	VF *VF
	// Subflows are the per-path μFAB flows.
	Subflows []*Flow
	// Buffer is the pair's shared demand; bytes are dispatched to the
	// least-backlogged subflow.
	Buffer *ufabe.Buffer

	fabric    *Fabric
	phiPair   float64
	paths     []*token.PathToken
	lastBytes []int64
	stopFns   []func()
}

// AddMultiFlow creates a VM-pair over k pinned underlay paths with a total
// token budget of the VF's guarantee. Demand pushed through mf.Send is
// spread across the subflows; tokens rebalance every rebalance period
// (default: 10 token periods).
func (f *Fabric) AddMultiFlow(vf *VF, src, dst topo.NodeID, k int, rebalance sim.Duration) *MultiFlow {
	routes := f.Graph.Paths(src, dst, 0)
	if len(routes) == 0 {
		panic(fmt.Sprintf("vfabric: no path %d→%d", src, dst))
	}
	if k <= 0 || k > len(routes) {
		k = len(routes)
	}
	f.rng.Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
	routes = routes[:k]
	if rebalance <= 0 {
		rebalance = 320 * sim.Microsecond
	}
	phiPair := vf.GuaranteeBps / ufabe.BU
	mf := &MultiFlow{
		VF:      vf,
		Buffer:  &ufabe.Buffer{},
		fabric:  f,
		phiPair: phiPair,
	}
	for i := range routes {
		pt := &token.PathToken{Demand: -1, Token: phiPair / float64(k)}
		mf.paths = append(mf.paths, pt)
		// Each subflow is pinned to its path so Algorithm 2 controls
		// the split, not the path monitor.
		fl := f.AddFlowRoutes(vf, routes[i:i+1], pt.Token, &ufabe.Buffer{})
		fl.Buffer = fl.Demand.(*ufabe.Buffer)
		mf.Subflows = append(mf.Subflows, fl)
		mf.lastBytes = append(mf.lastBytes, 0)
	}
	mf.stopFns = append(mf.stopFns, f.Eng.Every(rebalance, func() { mf.rebalance(rebalance) }))
	return mf
}

// Send pushes n bytes of demand, dispatching to the subflow with the
// smallest backlog (per-path queues, as the FPGA's per-VM-pair queues do).
func (mf *MultiFlow) Send(n int64) {
	best := 0
	for i, fl := range mf.Subflows {
		if fl.Buffer.Pending() < mf.Subflows[best].Buffer.Pending() {
			best = i
		}
		_ = i
	}
	mf.Subflows[best].Buffer.Add(n)
}

// SendAll pushes n bytes to every subflow (backlogged multipath use).
func (mf *MultiFlow) SendAll(n int64) {
	for _, fl := range mf.Subflows {
		fl.Buffer.Add(n)
	}
}

// rebalance measures each path's demand and reruns Algorithm 2.
func (mf *MultiFlow) rebalance(period sim.Duration) {
	bu := ufabe.BU
	for i, fl := range mf.Subflows {
		sent := fl.Pair.SentBytes
		rate := float64(sent-mf.lastBytes[i]) * 8 / period.Seconds()
		mf.lastBytes[i] = sent
		if fl.Buffer.Pending() > 0 {
			mf.paths[i].Demand = -1 // backlogged: unbounded
		} else {
			mf.paths[i].Demand = rate / bu
		}
	}
	token.MultipathAssign(mf.phiPair, mf.paths)
	for i, fl := range mf.Subflows {
		fl.Pair.SetPhi(mf.paths[i].Token)
	}
}

// Stop cancels the rebalance loop.
func (mf *MultiFlow) Stop() {
	for _, s := range mf.stopFns {
		s()
	}
}

// Rate returns the pair's aggregate acknowledged throughput over [from, to].
func (mf *MultiFlow) Rate(from, to sim.Time) float64 {
	total := 0.0
	for _, fl := range mf.Subflows {
		if r := fl.Meter.Series.MeanOver(from, to); r == r { // skip NaN
			total += r
		}
	}
	return total
}

// Delivered returns the aggregate acknowledged bytes.
func (mf *MultiFlow) Delivered() int64 {
	var d int64
	for _, fl := range mf.Subflows {
		d += fl.Pair.Delivered
	}
	return d
}

// RTT pools the subflows' RTT samples' quantiles.
func (mf *MultiFlow) RTT() stats.Samples {
	var s stats.Samples
	for _, fl := range mf.Subflows {
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if v := fl.Pair.RTT.P(q); v == v {
				s.Add(v)
			}
		}
	}
	return s
}
