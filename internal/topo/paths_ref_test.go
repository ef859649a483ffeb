package topo

import (
	"math/rand"
	"testing"

	"ufab/internal/sim"
)

// refPathsFrom is the reference model of Paths, independent of any
// hop-count labels: a BFS from src, then a DFS into every branch that
// moves one hop further from src, which lists every shortest path out of
// src in the lexicographic order of its Out indices. It returns them grouped
// by end node (src's own group is the empty path; an unreachable node has
// none).
func (g *Graph) refPathsFrom(src NodeID) [][]Path {
	const inf = int32(1) << 30
	dist := make([]int32, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range g.Nodes[n].Out {
			m := g.Links[lid].Dst
			if dist[m] == inf {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	to := make([][]Path, len(g.Nodes))
	var cur Path
	var dfs func(n NodeID)
	dfs = func(n NodeID) {
		to[n] = append(to[n], append(Path{}, cur...))
		for _, lid := range g.Nodes[n].Out {
			if m := g.Links[lid].Dst; dist[m] == dist[n]+1 {
				cur = append(cur, lid)
				dfs(m)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(src)
	return to
}

// truncateRef cuts one group of refPathsFrom to the first maxPaths paths
// (≤ 0: all), the survivors Paths must return.
func truncateRef(paths []Path, maxPaths int) []Path {
	if maxPaths > 0 && len(paths) > maxPaths {
		return paths[:maxPaths]
	}
	return paths
}

// enumeratePathsRef is the reference answer for one pair.
func (g *Graph) enumeratePathsRef(src, dst NodeID, maxPaths int) []Path {
	return truncateRef(g.refPathsFrom(src)[dst], maxPaths)
}

// The walk over hop-count labels must return the reference's paths element
// for element — same set, same order, same survivors under maxPaths
// truncation — for self and unreachable pairs too. It is exhaustive where
// that is cheap: every node pair (switches included) of the small builders,
// and every (pod-0 host, any host) pair of the two 1k-class Clos shapes.
func TestEnumeratePathsMatchesReference(t *testing.T) {
	c, d := Gbps(10), sim.Microsecond
	island := NewStar(3, c, d).Graph
	island.AddNode(Host, TierHost, "island") // no links: unreachable both ways
	pod0 := func(cl *Clos) []NodeID { return cl.Hosts[:cl.Cfg.ToRsPerPod*cl.Cfg.HostsPerToR] }
	paper512, fabric1k := NewClos(Paper512(16)), NewClos(fabric1kShape)
	cases := []struct {
		name       string
		g          *Graph
		srcs, dsts []NodeID // nil: every node
	}{
		{"paper512", paper512.Graph, pod0(paper512), paper512.Hosts},
		{"fabric1k", fabric1k.Graph, pod0(fabric1k), fabric1k.Hosts},
		{"fattree8", FatTree(8, c, d).Graph, nil, nil},
		{"fattree6", FatTree(6, c, d).Graph, nil, nil},
		{"fattree4", FatTree(4, c, d).Graph, nil, nil},
		{"clos", NewClos(ClosConfig{Pods: 3, ToRsPerPod: 3, AggsPerPod: 2, Cores: 6, HostsPerToR: 3}).Graph, nil, nil},
		{"star", NewStar(5, c, d).Graph, nil, nil},
		{"testbed", NewTestbed(TestbedConfig{}).Graph, nil, nil},
		{"twotier", NewTwoTier(3, 4, c, d).Graph, nil, nil},
		{"chain", NewChain(4, c, d).Graph, nil, nil},
		{"island", island, nil, nil},
	}
	for _, tc := range cases {
		if tc.srcs == nil {
			for i := range tc.g.Nodes {
				tc.srcs = append(tc.srcs, NodeID(i))
			}
			tc.dsts = tc.srcs
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, src := range tc.srcs {
				ref := tc.g.refPathsFrom(src)
				for _, dst := range tc.dsts {
					for _, max := range []int{0, 1, 4, 32} {
						got := tc.g.enumeratePaths(src, dst, max)
						want := truncateRef(ref[dst], max)
						if !pathsEqual(got, want) {
							t.Fatalf("%d→%d max %d: walk found %d paths %v, reference %d paths %v",
								src, dst, max, len(got), got, len(want), want)
						}
						if (got == nil) != (want == nil) {
							t.Fatalf("%d→%d max %d: nil-ness differs (walk %v, reference %v)",
								src, dst, max, got == nil, want == nil)
						}
					}
				}
			}
		})
	}
}

// fabric1kShape is the 1 024-host Clos of the benchmark's fabric1k_*
// workloads: 8 pods of 8 ToRs of 16 hosts, 4 aggs per pod, 16 cores.
var fabric1kShape = ClosConfig{Pods: 8, ToRsPerPod: 8, AggsPerPod: 4, Cores: 16, HostsPerToR: 16,
	LinkCapacity: Gbps(10), PropDelay: sim.Microsecond}

// setUpCrossPodPairs asks of cl's graph what a fabric asks when it sets up
// one cross-pod VM-pair per host (host i to host i+n/2): a connectivity
// check, then a sample of four candidate paths.
func setUpCrossPodPairs(t *testing.T, cl *Clos) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n := len(cl.Hosts)
	for i, src := range cl.Hosts {
		dst := cl.Hosts[(i+n/2)%n]
		if cl.Graph.Hops(src, dst) < 0 || len(cl.Graph.SamplePaths(src, dst, 4, rng)) == 0 {
			t.Fatalf("no path %d→%d", src, dst)
		}
	}
}

// Set-up labels once per attachment switch: after one cross-pod pair per
// host of a k-ary fat tree the graph holds one labelling per ToR (k²/2),
// not two BFS per pair, and one path enumeration per pair.
func TestLabelsPerToR(t *testing.T) {
	for _, k := range []int{4, 8, 12, 16} {
		ft := FatTree(k, Gbps(10), sim.Microsecond)
		setUpCrossPodPairs(t, ft)
		if got, want := len(ft.Graph.labels), k*k/2; got != want {
			t.Errorf("k=%d: %d labellings after %d pairs, want one per ToR (%d)", k, got, len(ft.Hosts), want)
		}
		if got, want := len(ft.Graph.pathCache), len(ft.Hosts); got != want {
			t.Errorf("k=%d: %d path enumerations for %d pairs, want one per pair", k, got, want)
		}
	}
}

// The labels set-up leaves behind on the benchmark's 1 024-host fabric are
// one int32 per node per ToR: 64 × 1 136 × 4 B, within 0.5 MiB.
func TestLabelBytesFabric1k(t *testing.T) {
	cl := NewClos(fabric1kShape)
	setUpCrossPodPairs(t, cl)
	bytes := 0
	for _, lab := range cl.Graph.labels {
		bytes += 4 * len(lab)
	}
	t.Logf("%d labellings over %d nodes: %d B", len(cl.Graph.labels), len(cl.Graph.Nodes), bytes)
	if len(cl.Graph.labels) != len(cl.ToRs) || bytes > 512<<10 {
		t.Fatalf("%d labellings, %d B; want %d (one per ToR) within 512 KiB", len(cl.Graph.labels), bytes, len(cl.ToRs))
	}
}

// Once the destination's anchor is labelled, a walk allocates only its
// result: the outer slice and one array behind every path. Hops allocates
// nothing.
func TestWarmWalkAllocations(t *testing.T) {
	cl := NewClos(fabric1kShape)
	g := cl.Graph
	src, dst := cl.Hosts[0], cl.Hosts[len(cl.Hosts)-1]
	g.enumeratePaths(src, dst, 0) // labels dst's ToR, sizes the scratch
	if a := testing.AllocsPerRun(100, func() { g.enumeratePaths(src, dst, 0) }); a > 2 {
		t.Errorf("warm walk: %.0f allocations per call, want ≤ 2", a)
	}
	if a := testing.AllocsPerRun(100, func() { g.Hops(src, dst) }); a != 0 {
		t.Errorf("Hops: %.0f allocations per call, want 0", a)
	}
}

// Diameter on every builder equals its value before it read the labels
// (when it took Paths(…, 1)[0] of every host pair), and leaves no path memo
// entry behind.
func TestDiameterPinned(t *testing.T) {
	c, d := Gbps(10), sim.Microsecond
	for _, tc := range []struct {
		name string
		g    *Graph
		want sim.Duration
	}{
		{"testbed", NewTestbed(TestbedConfig{}).Graph, 38400000},
		{"testbed100", NewTestbed(TestbedConfig{LinkCapacity: Gbps(100)}).Graph, 25439988},
		{"twotier", NewTwoTier(3, 4, c, d).Graph, 17600000},
		{"star", NewStar(5, c, d).Graph, 8800000},
		{"chain", NewChain(4, c, d).Graph, 22000000},
		{"clos", NewClos(ClosConfig{Pods: 3, ToRsPerPod: 3, AggsPerPod: 2, Cores: 6, HostsPerToR: 3}).Graph, 13439988},
		{"paper512", NewClos(Paper512(16)).Graph, 13439988},
		{"fattree4", FatTree(4, c, d).Graph, 26400000},
		{"fattree6", FatTree(6, c, d).Graph, 26400000},
		{"fattree8", FatTree(8, c, d).Graph, 26400000},
	} {
		if got := tc.g.Diameter(1500); got != tc.want {
			t.Errorf("%s: Diameter(1500) = %v (%d), want %v (%d)", tc.name, got, int64(got), tc.want, int64(tc.want))
		}
		if len(tc.g.pathCache) != 0 {
			t.Errorf("%s: Diameter left %d path memo entries", tc.name, len(tc.g.pathCache))
		}
	}
}

// Where equal-cost paths differ in delay, Diameter still prices each pair's
// first path: the reference's Paths(…, 1)[0].
func TestDiameterFirstPath(t *testing.T) {
	g := &Graph{}
	l, r := g.AddNode(Switch, TierToR, "L"), g.AddNode(Switch, TierToR, "R")
	for i, prop := range []sim.Duration{3 * sim.Microsecond, sim.Microsecond, 7 * sim.Microsecond} {
		a := g.AddNode(Switch, TierAgg, "A")
		g.AddDuplexLink(l, a, Gbps(float64(10*(i+1))), prop)
		g.AddDuplexLink(a, r, Gbps(10), prop)
	}
	var hosts []NodeID
	for i, tor := range []NodeID{l, l, r} {
		h := g.AddNode(Host, TierHost, "H")
		hosts = append(hosts, h)
		g.AddDuplexLink(h, tor, Gbps(float64(25*(i+1))), sim.Microsecond)
	}
	var want sim.Duration
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				if rtt := g.BaseRTT(g.enumeratePathsRef(a, b, 1)[0], 1500); rtt > want {
					want = rtt
				}
			}
		}
	}
	if got := g.Diameter(1500); got != want {
		t.Fatalf("Diameter(1500) = %v, want the first paths' maximum %v", got, want)
	}
}
