// Package topo models data center network topologies as directed graphs of
// nodes (hosts and switches) and directional links, and enumerates the
// equal-cost underlay paths that μFAB-E selects among.
//
// Builders are provided for the three topologies the paper evaluates on:
// the Fig-10 testbed (2 pods, 8 servers, 10 switches), the Fig-5 Case-2
// two-tier network (2 ToRs, 3 aggregation switches), and a 3-tier Clos with
// configurable oversubscription standing in for the 512-server NS3 FatTree.
package topo

import (
	"fmt"
	"math/rand"

	"ufab/internal/sim"
)

// NodeID identifies a node within a Graph.
type NodeID int32

// LinkID identifies a directional link within a Graph.
type LinkID int32

// NoLink is the invalid LinkID.
const NoLink LinkID = -1

// NodeKind distinguishes hosts (traffic endpoints) from switches.
type NodeKind uint8

// Node kinds.
const (
	Host NodeKind = iota
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Tier labels a node's layer in a Clos fabric; hosts are tier 0.
type Tier uint8

// Clos tiers.
const (
	TierHost Tier = iota
	TierToR
	TierAgg
	TierCore
)

// Node is a vertex in the topology graph.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Tier Tier
	Name string
	// Out lists the outgoing links, in insertion order.
	Out []LinkID
}

// Link is a directional edge. Duplex connections are modeled as two Links
// that reference each other through Reverse.
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	// Capacity is the physical line rate in bits per second.
	Capacity float64
	// PropDelay is the one-way propagation delay.
	PropDelay sim.Duration
	// Reverse is the link carrying traffic in the opposite direction.
	Reverse LinkID
}

// Path is an ordered sequence of link IDs from a source node to a
// destination node.
type Path []LinkID

// Graph holds the nodes and links of a topology. The zero value is an empty
// graph ready for use.
type Graph struct {
	Nodes []Node
	Links []Link

	// pathCache memoizes Paths results per (src, dst, maxPaths). It is
	// dropped whenever the graph mutates (AddNode / AddDuplexLink). The
	// cached inner Path slices are shared between calls and must be
	// treated as read-only by callers.
	pathCache map[pathKey][]Path
}

type pathKey struct {
	src, dst NodeID
	max      int
}

// invalidatePaths drops all memoized path enumerations; called on every
// graph mutation.
func (g *Graph) invalidatePaths() { g.pathCache = nil }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind NodeKind, tier Tier, name string) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Tier: tier, Name: name})
	g.invalidatePaths()
	return id
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) *Link { return &g.Links[id] }

// AddDuplexLink connects a and b with a pair of opposite-direction links of
// the given capacity (bits/s) and one-way propagation delay, returning the
// a→b link ID and the b→a link ID.
func (g *Graph) AddDuplexLink(a, b NodeID, capacity float64, prop sim.Duration) (ab, ba LinkID) {
	if capacity <= 0 {
		panic(fmt.Sprintf("topo: non-positive capacity %v", capacity))
	}
	ab = LinkID(len(g.Links))
	ba = ab + 1
	g.Links = append(g.Links,
		Link{ID: ab, Src: a, Dst: b, Capacity: capacity, PropDelay: prop, Reverse: ba},
		Link{ID: ba, Src: b, Dst: a, Capacity: capacity, PropDelay: prop, Reverse: ab},
	)
	g.Nodes[a].Out = append(g.Nodes[a].Out, ab)
	g.Nodes[b].Out = append(g.Nodes[b].Out, ba)
	g.invalidatePaths()
	return ab, ba
}

// ReversePath returns the path from the destination back to the source,
// traversing the reverse of each link in opposite order.
func (g *Graph) ReversePath(p Path) Path {
	r := make(Path, len(p))
	for i, l := range p {
		r[len(p)-1-i] = g.Links[l].Reverse
	}
	return r
}

// PathDst returns the final node of a path.
func (g *Graph) PathDst(p Path) NodeID { return g.Links[p[len(p)-1]].Dst }

// PathSrc returns the first node of a path.
func (g *Graph) PathSrc(p Path) NodeID { return g.Links[p[0]].Src }

// BaseRTT returns the round-trip propagation plus per-hop serialization
// delay of one MTU-sized packet along the path and back, which is the
// baseRTT T_{a→b} μFAB uses (the RTT without queuing).
func (g *Graph) BaseRTT(p Path, mtu int) sim.Duration {
	var d sim.Duration
	for _, l := range p {
		lk := &g.Links[l]
		d += lk.PropDelay + SerializationDelay(mtu, lk.Capacity)
	}
	return 2 * d
}

// SerializationDelay returns the time to put size bytes on a wire of the
// given capacity in bits per second.
func SerializationDelay(size int, capacity float64) sim.Duration {
	return sim.Duration(float64(size*8) / capacity * float64(sim.Second))
}

// MinCapacity returns the smallest link capacity along the path.
func (g *Graph) MinCapacity(p Path) float64 {
	min := g.Links[p[0]].Capacity
	for _, l := range p[1:] {
		if c := g.Links[l].Capacity; c < min {
			min = c
		}
	}
	return min
}

// Validate checks structural invariants: link endpoints are in range,
// Reverse pointers are symmetric, and Out lists are consistent.
func (g *Graph) Validate() error {
	for _, l := range g.Links {
		if int(l.Src) >= len(g.Nodes) || int(l.Dst) >= len(g.Nodes) {
			return fmt.Errorf("link %d endpoints out of range", l.ID)
		}
		if l.Reverse != NoLink {
			r := g.Links[l.Reverse]
			if r.Reverse != l.ID || r.Src != l.Dst || r.Dst != l.Src {
				return fmt.Errorf("link %d reverse %d not symmetric", l.ID, l.Reverse)
			}
		}
	}
	for _, n := range g.Nodes {
		for _, lid := range n.Out {
			if g.Links[lid].Src != n.ID {
				return fmt.Errorf("node %d lists link %d whose src is %d", n.ID, lid, g.Links[lid].Src)
			}
		}
	}
	return nil
}

// Paths enumerates up to maxPaths shortest (hop-count) paths from src to
// dst, in a deterministic order. All returned paths have equal length, so
// in Clos fabrics they are exactly the ECMP-equivalent paths. maxPaths ≤ 0
// means no limit.
//
// Results are memoized per (src, dst, maxPaths) until the graph mutates.
// The outer slice is freshly allocated on every call (callers reorder it),
// but the Path values themselves are shared and must not be modified.
func (g *Graph) Paths(src, dst NodeID, maxPaths int) []Path {
	if src == dst {
		return nil
	}
	key := pathKey{src: src, dst: dst, max: maxPaths}
	if cached, ok := g.pathCache[key]; ok {
		if cached == nil {
			return nil
		}
		out := make([]Path, len(cached))
		copy(out, cached)
		return out
	}
	paths := g.enumeratePaths(src, dst, maxPaths)
	if g.pathCache == nil {
		g.pathCache = make(map[pathKey][]Path)
	}
	g.pathCache[key] = paths
	if paths == nil {
		return nil
	}
	out := make([]Path, len(paths))
	copy(out, paths)
	return out
}

// SamplePaths returns up to k candidate paths from src to dst, drawn
// uniformly with rng from the first 8k equal-cost paths when there are more
// than k (§3.5: the edge "randomly chooses a few of them"); rng is consumed
// only in that case.
func (g *Graph) SamplePaths(src, dst NodeID, k int, rng *rand.Rand) []Path {
	all := g.Paths(src, dst, 8*k)
	if len(all) > k {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		all = all[:k]
	}
	return all
}

// enumeratePaths is the uncached path enumeration behind Paths: a BFS from
// dst labels every node with its hop distance *to* dst (every link is one
// half of a duplex pair, so walking Out from dst measures the way back),
// and a DFS from src descends only links that bring it one hop closer. It
// never enters a branch that cannot reach dst, which in a Clos fabric is
// nearly all of them. Children are visited in Out order, so the paths come
// out in the lexicographic order of their Out indices and truncation at
// maxPaths keeps the first ones.
func (g *Graph) enumeratePaths(src, dst NodeID, maxPaths int) []Path {
	const inf = int32(1) << 30
	dist := make([]int32, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[dst] = 0
	queue := append(make([]NodeID, 0, len(g.Nodes)), dst)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, lid := range g.Nodes[n].Out {
			m := g.Links[lid].Dst
			if dist[m] == inf {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	if dist[src] == inf {
		return nil
	}
	var paths []Path
	cur := make(Path, 0, dist[src])
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
			if dist[m] == dist[n]-1 {
				cur = append(cur, lid)
				dfs(m)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(src)
	return paths
}

// Diameter returns the maximum over all host pairs of BaseRTT, i.e. the
// network's T_max used in the 3·C·T_max inflight bound. It is computed by
// BFS from every host; intended for setup, not per-packet use.
func (g *Graph) Diameter(mtu int) sim.Duration {
	var max sim.Duration
	for _, n := range g.Nodes {
		if n.Kind != Host {
			continue
		}
		for _, m := range g.Nodes {
			if m.Kind != Host || m.ID == n.ID {
				continue
			}
			ps := g.Paths(n.ID, m.ID, 1)
			if len(ps) == 0 {
				continue
			}
			if rtt := g.BaseRTT(ps[0], mtu); rtt > max {
				max = rtt
			}
		}
	}
	return max
}

// Hosts returns the IDs of all host nodes in insertion order.
func (g *Graph) Hosts() []NodeID {
	var hs []NodeID
	for _, n := range g.Nodes {
		if n.Kind == Host {
			hs = append(hs, n.ID)
		}
	}
	return hs
}
