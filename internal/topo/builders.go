package topo

import (
	"fmt"

	"ufab/internal/sim"
)

// Gbps converts gigabits per second to bits per second.
func Gbps(g float64) float64 { return g * 1e9 }

// Testbed describes the Fig-10 evaluation topology: a 3-tier network with
// two pods. Each pod has two ToR switches and two aggregation switches;
// two core switches interconnect the pods; two servers attach to each ToR
// (8 servers, 10 switches).
type Testbed struct {
	Graph   *Graph
	Servers []NodeID // S1..S8
	ToRs    []NodeID // 2 per pod
	Aggs    []NodeID // 2 per pod
	Cores   []NodeID
}

// TestbedConfig parameterizes NewTestbed.
type TestbedConfig struct {
	// LinkCapacity is the uniform line rate in bits/s (default 10 Gbps,
	// the SoC prototype; Fig 15 uses 100 Gbps).
	LinkCapacity float64
}

// testbedPropDelay is the testbed's per-hop one-way propagation delay: it
// gives the paper's maximum baseRTT of ~24 μs across pods.
const testbedPropDelay = 2 * sim.Microsecond

func (c *TestbedConfig) setDefaults() {
	if c.LinkCapacity == 0 {
		c.LinkCapacity = Gbps(10)
	}
}

// NewTestbed builds the Fig-10 testbed.
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg.setDefaults()
	g := &Graph{}
	tb := &Testbed{Graph: g}
	for i := 0; i < 2; i++ {
		tb.Cores = append(tb.Cores, g.AddNode(Switch, TierCore, fmt.Sprintf("Core%d", i+1)))
	}
	server := 0
	for pod := 0; pod < 2; pod++ {
		var aggs []NodeID
		for i := 0; i < 2; i++ {
			a := g.AddNode(Switch, TierAgg, fmt.Sprintf("Pod%d-Agg%d", pod+1, i+1))
			aggs = append(aggs, a)
			tb.Aggs = append(tb.Aggs, a)
			for _, c := range tb.Cores {
				g.AddDuplexLink(a, c, cfg.LinkCapacity, testbedPropDelay)
			}
		}
		for i := 0; i < 2; i++ {
			t := g.AddNode(Switch, TierToR, fmt.Sprintf("Pod%d-ToR%d", pod+1, i+1))
			tb.ToRs = append(tb.ToRs, t)
			for _, a := range aggs {
				g.AddDuplexLink(t, a, cfg.LinkCapacity, testbedPropDelay)
			}
			for j := 0; j < 2; j++ {
				server++
				s := g.AddNode(Host, TierHost, fmt.Sprintf("S%d", server))
				tb.Servers = append(tb.Servers, s)
				g.AddDuplexLink(s, t, cfg.LinkCapacity, testbedPropDelay)
			}
		}
	}
	return tb
}

// TwoTier describes the Fig-5 Case-2 topology: hosts under two ToR
// switches, with nAggs aggregation switches providing nAggs equal-cost
// paths (P1..Pn) between the ToRs.
type TwoTier struct {
	Graph *Graph
	// HostsLeft and HostsRight attach to ToR1 and ToR2 respectively.
	HostsLeft, HostsRight []NodeID
	ToR1, ToR2            NodeID
	Aggs                  []NodeID
}

// NewTwoTier builds a two-ToR topology with nAggs parallel aggregation
// switches and the given number of hosts per ToR, all links at capacity
// bits/s with the given propagation delay.
func NewTwoTier(nAggs, hostsPerToR int, capacity float64, prop sim.Duration) *TwoTier {
	g := &Graph{}
	tt := &TwoTier{Graph: g}
	tt.ToR1 = g.AddNode(Switch, TierToR, "ToR1")
	tt.ToR2 = g.AddNode(Switch, TierToR, "ToR2")
	for i := 0; i < nAggs; i++ {
		a := g.AddNode(Switch, TierAgg, fmt.Sprintf("Agg%d", i+1))
		tt.Aggs = append(tt.Aggs, a)
		g.AddDuplexLink(tt.ToR1, a, capacity, prop)
		g.AddDuplexLink(tt.ToR2, a, capacity, prop)
	}
	for i := 0; i < hostsPerToR; i++ {
		h := g.AddNode(Host, TierHost, fmt.Sprintf("H%d", i+1))
		tt.HostsLeft = append(tt.HostsLeft, h)
		g.AddDuplexLink(h, tt.ToR1, capacity, prop)
	}
	for i := 0; i < hostsPerToR; i++ {
		h := g.AddNode(Host, TierHost, fmt.Sprintf("H%d", hostsPerToR+i+1))
		tt.HostsRight = append(tt.HostsRight, h)
		g.AddDuplexLink(h, tt.ToR2, capacity, prop)
	}
	return tt
}

// Star describes a single-switch topology used by incast experiments and
// unit tests: n hosts around one switch.
type Star struct {
	Graph  *Graph
	Hosts  []NodeID
	Center NodeID
}

// NewStar builds an n-host star with all links at capacity bits/s.
func NewStar(n int, capacity float64, prop sim.Duration) *Star {
	g := &Graph{}
	st := &Star{Graph: g}
	st.Center = g.AddNode(Switch, TierToR, "SW")
	for i := 0; i < n; i++ {
		h := g.AddNode(Host, TierHost, fmt.Sprintf("H%d", i+1))
		st.Hosts = append(st.Hosts, h)
		g.AddDuplexLink(h, st.Center, capacity, prop)
	}
	return st
}

// ClosConfig parameterizes NewClos, the 3-tier fabric standing in for the
// paper's 512-server NS3 FatTree. Oversubscription is set by the ratio of
// host-facing to core-facing bandwidth at each tier: with HostsPerToR=16,
// ToRUplinks=AggsPerPod and equal link speeds, the paper's 1:2 and 1:1
// ratios correspond to 16 and 32 core switches (as in §5.1).
type ClosConfig struct {
	Pods        int
	ToRsPerPod  int
	AggsPerPod  int
	Cores       int
	HostsPerToR int
	// LinkCapacity applies to all links (paper: 100 Gbps).
	LinkCapacity float64
	PropDelay    sim.Duration // paper: 1 μs
}

// Paper512 returns the configuration of the paper's 512-server simulation
// fabric with the given number of core switches (16 → 1:2 oversubscription,
// 32 → 1:1).
func Paper512(cores int) ClosConfig {
	return ClosConfig{
		Pods:         8,
		ToRsPerPod:   4,
		AggsPerPod:   4,
		Cores:        cores,
		HostsPerToR:  16,
		LinkCapacity: Gbps(100),
		PropDelay:    1 * sim.Microsecond,
	}
}

// Clos is a 3-tier Clos fabric.
type Clos struct {
	Graph *Graph
	Hosts []NodeID
	ToRs  []NodeID
	Aggs  []NodeID
	Cores []NodeID
	Cfg   ClosConfig
}

// NewClos builds the fabric. Each ToR connects to every agg in its pod;
// aggs connect to a stripe of cores (core c connects to agg a of each pod
// when c % AggsPerPod == a), the standard fat-tree wiring generalized to
// arbitrary core counts.
func NewClos(cfg ClosConfig) *Clos {
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = Gbps(100)
	}
	if cfg.PropDelay == 0 {
		cfg.PropDelay = 1 * sim.Microsecond
	}
	g := &Graph{}
	cl := &Clos{Graph: g, Cfg: cfg}
	for c := 0; c < cfg.Cores; c++ {
		cl.Cores = append(cl.Cores, g.AddNode(Switch, TierCore, fmt.Sprintf("Core%d", c)))
	}
	host := 0
	for p := 0; p < cfg.Pods; p++ {
		var aggs []NodeID
		for a := 0; a < cfg.AggsPerPod; a++ {
			agg := g.AddNode(Switch, TierAgg, fmt.Sprintf("P%d-Agg%d", p, a))
			aggs = append(aggs, agg)
			cl.Aggs = append(cl.Aggs, agg)
			for c := 0; c < cfg.Cores; c++ {
				if c%cfg.AggsPerPod == a {
					g.AddDuplexLink(agg, cl.Cores[c], cfg.LinkCapacity, cfg.PropDelay)
				}
			}
		}
		for t := 0; t < cfg.ToRsPerPod; t++ {
			tor := g.AddNode(Switch, TierToR, fmt.Sprintf("P%d-ToR%d", p, t))
			cl.ToRs = append(cl.ToRs, tor)
			for _, agg := range aggs {
				g.AddDuplexLink(tor, agg, cfg.LinkCapacity, cfg.PropDelay)
			}
			for h := 0; h < cfg.HostsPerToR; h++ {
				hn := g.AddNode(Host, TierHost, fmt.Sprintf("H%d", host))
				host++
				cl.Hosts = append(cl.Hosts, hn)
				g.AddDuplexLink(hn, tor, cfg.LinkCapacity, cfg.PropDelay)
			}
		}
	}
	return cl
}

// FatTree builds the canonical k-ary fat tree [Al-Fares et al., SIGCOMM'08]:
// k pods, each with k/2 edge and k/2 aggregation switches, (k/2)² core
// switches, and k³/4 hosts, with full bisection bandwidth. k must be even
// and ≥ 2.
func FatTree(k int, capacity float64, prop sim.Duration) *Clos {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat tree arity %d must be even and ≥ 2", k))
	}
	return NewClos(ClosConfig{
		Pods:         k,
		ToRsPerPod:   k / 2,
		AggsPerPod:   k / 2,
		Cores:        k * k / 4,
		HostsPerToR:  k / 2,
		LinkCapacity: capacity,
		PropDelay:    prop,
	})
}

// Chain builds a linear topology: host — n switches — host. It exists for
// protocol tests that need paths longer than the probe format's 15 hop records.
type Chain struct {
	Graph    *Graph
	Src, Dst NodeID
	Switches []NodeID
}

// NewChain builds the linear topology with the given switch count.
func NewChain(nSwitches int, capacity float64, prop sim.Duration) *Chain {
	g := &Graph{}
	c := &Chain{Graph: g}
	c.Src = g.AddNode(Host, TierHost, "src")
	prev := c.Src
	for i := 0; i < nSwitches; i++ {
		sw := g.AddNode(Switch, TierToR, fmt.Sprintf("SW%d", i))
		c.Switches = append(c.Switches, sw)
		g.AddDuplexLink(prev, sw, capacity, prop)
		prev = sw
	}
	c.Dst = g.AddNode(Host, TierHost, "dst")
	g.AddDuplexLink(prev, c.Dst, capacity, prop)
	return c
}
