package topo

import (
	"math/rand"
	"testing"

	"ufab/internal/sim"
)

// enumeratePathsRef is the enumeration Paths used before the walk was pruned
// by distance-to-destination, kept as the reference model: BFS from src,
// then a DFS into every branch of the right depth, dead ends included.
func (g *Graph) enumeratePathsRef(src, dst NodeID, maxPaths int) []Path {
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
	if dist[dst] == inf {
		return nil
	}
	var paths []Path
	cur := make(Path, 0, dist[dst])
	var dfs func(n NodeID)
	dfs = func(n NodeID) {
		if maxPaths > 0 && len(paths) >= maxPaths {
			return
		}
		if n == dst {
			p := make(Path, len(cur))
			copy(p, cur)
			paths = append(paths, p)
			return
		}
		for _, lid := range g.Nodes[n].Out {
			m := g.Links[lid].Dst
			if dist[m] == dist[n]+1 && dist[m] <= dist[dst] {
				cur = append(cur, lid)
				dfs(m)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(src)
	return paths
}

// The pruned enumeration must return the reference's paths element for
// element — same set, same order, same survivors under maxPaths truncation —
// on every builder, between any two nodes (switches included), and for
// self and unreachable pairs.
func TestEnumeratePathsMatchesReference(t *testing.T) {
	c, d := Gbps(10), sim.Microsecond
	island := NewStar(3, c, d).Graph
	island.AddNode(Host, TierHost, "island") // no links: unreachable both ways
	graphs := map[string]*Graph{
		"clos":     NewClos(ClosConfig{Pods: 3, ToRsPerPod: 3, AggsPerPod: 2, Cores: 6, HostsPerToR: 3}).Graph,
		"paper512": NewClos(Paper512(16)).Graph,
		"fattree4": FatTree(4, c, d).Graph,
		"fattree6": FatTree(6, c, d).Graph,
		"star":     NewStar(5, c, d).Graph,
		"testbed":  NewTestbed(TestbedConfig{}).Graph,
		"twotier":  NewTwoTier(3, 4, c, d).Graph,
		"chain":    NewChain(4, c, d).Graph,
		"island":   island,
	}
	rng := rand.New(rand.NewSource(17))
	for name, g := range graphs {
		n := len(g.Nodes)
		for trial := 0; trial < 400; trial++ {
			src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if trial%50 == 0 {
				dst = src
			}
			for _, max := range []int{0, 1, 4, 32} {
				got := g.enumeratePaths(src, dst, max)
				want := g.enumeratePathsRef(src, dst, max)
				if !pathsEqual(got, want) {
					t.Fatalf("%s: %d→%d max %d: pruned walk found %d paths %v, reference %d paths %v",
						name, src, dst, max, len(got), got, len(want), want)
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("%s: %d→%d max %d: nil-ness differs (pruned %v, reference %v)",
						name, src, dst, max, got == nil, want == nil)
				}
			}
		}
	}
}
