// Package topo models data center network topologies as directed graphs of
// nodes (hosts and switches) and directional links, and enumerates the
// equal-cost underlay paths that μFAB-E selects among.
//
// One enumerator serves every graph. A breadth-first search labels every
// node with its hop count to an anchor node, and a walk descends from the
// source along links one hop closer, in Out order. A node with a single link
// is on nobody else's shortest path, so paths to it read its neighbour's
// labels: on a Clos fabric that is one labelling per ToR, however many hosts
// and VM-pairs sit below it. Labels and paths are memoised until the graph
// mutates.
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
// graph ready for use. Its queries memoise into the graph, so one Graph is
// not for concurrent use.
type Graph struct {
	Nodes []Node
	Links []Link

	// pathCache memoizes Paths results per (src, dst, maxPaths). It is
	// dropped whenever the graph mutates (AddNode / AddDuplexLink). The
	// cached inner Path slices are shared between calls and must be
	// treated as read-only by callers.
	pathCache map[pathKey][]Path
	// labels memoizes, per anchor node, every node's hop count to that
	// anchor (unreachable where there is no way). Paths reads the labels of
	// its destination's anchor (see anchor), so they outlive any one pair;
	// they are dropped together with pathCache.
	labels map[NodeID][]int32
	// walk is the scratch the labelling and the descent reuse.
	walk walker
}

type pathKey struct {
	src, dst NodeID
	max      int
}

// walker holds the buffers of a labelling BFS and of a path descent.
type walker struct {
	queue []NodeID
	// cur and next are the descent's stack: the links taken so far, and
	// per depth the index of the next Out link to try; found holds every
	// path found, back to back.
	cur   Path
	next  []int
	found []LinkID
}

// unreachable labels a node with no way to the anchor.
const unreachable = int32(1) << 30

// invalidatePaths drops all memoized path enumerations and hop-count
// labels; called on every graph mutation.
func (g *Graph) invalidatePaths() { g.pathCache, g.labels = nil, nil }

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
// but the Path values themselves are shared and must not be modified. A
// miss costs one walk over the hop-count labels of dst's anchor, which are
// labelled once for every pair that ends below it.
func (g *Graph) Paths(src, dst NodeID, maxPaths int) []Path {
	if paths := g.SharedPaths(src, dst, maxPaths); paths != nil {
		return append([]Path(nil), paths...)
	}
	return nil
}

// SharedPaths is Paths without the copy: the memoized slice itself, for a
// caller that only reads it and neither reorders nor keeps it.
func (g *Graph) SharedPaths(src, dst NodeID, maxPaths int) []Path {
	if src == dst {
		return nil
	}
	key := pathKey{src: src, dst: dst, max: maxPaths}
	if cached, ok := g.pathCache[key]; ok {
		return cached
	}
	paths := g.enumeratePaths(src, dst, maxPaths)
	if g.pathCache == nil {
		g.pathCache = make(map[pathKey][]Path)
	}
	g.pathCache[key] = paths
	return paths
}

// Hops returns the hop count of the shortest path from src to dst (0 when
// they are the same node), or -1 when dst is unreachable. It reads the
// labels Paths walks and enumerates nothing.
func (g *Graph) Hops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	lab, off := g.hopsTo(dst)
	if lab[src] == unreachable {
		return -1
	}
	return int(lab[src] + off)
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

// anchor returns the node whose labels measure the way to dst, and the hops
// from the anchor on to dst. A node with exactly one link (every host of
// every builder) is never inside anyone else's shortest path, so for every
// other node its hop count is its neighbour's plus one: such a node's anchor
// is its neighbour, and every host under a ToR shares the ToR's labels.
func (g *Graph) anchor(dst NodeID) (NodeID, int32) {
	if out := g.Nodes[dst].Out; len(out) == 1 {
		if nb := g.Links[out[0]].Dst; nb != dst {
			return nb, 1
		}
	}
	return dst, 0
}

// hopsTo returns the labels of dst's anchor and the offset to add: every
// node x other than dst is lab[x]+off hops from dst, or has no way to it
// when lab[x] is unreachable. The anchor is labelled by one BFS on its first
// use: every link is one half of a duplex pair, so walking Out from the
// anchor measures the way back to it.
func (g *Graph) hopsTo(dst NodeID) (lab []int32, off int32) {
	a, off := g.anchor(dst)
	if lab, ok := g.labels[a]; ok {
		return lab, off
	}
	lab = make([]int32, len(g.Nodes))
	for i := range lab {
		lab[i] = unreachable
	}
	lab[a] = 0
	queue := append(g.walk.queue[:0], a)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, lid := range g.Nodes[n].Out {
			if m := g.Links[lid].Dst; lab[m] == unreachable {
				lab[m] = lab[n] + 1
				queue = append(queue, m)
			}
		}
	}
	g.walk.queue = queue
	if g.labels == nil {
		g.labels = make(map[NodeID][]int32)
	}
	g.labels[a] = lab
	return lab, off
}

// descend walks the shortest paths from src to dst, leaving up to maxPaths
// of them (≤ 0: all) back to back in g.walk.found, and returns how many it
// found and their length. It descends only links that bring it one hop
// closer to dst, so it never enters a branch that cannot reach dst, which in
// a Clos fabric is nearly all of them. Children are visited in Out order, so
// the paths come out in the lexicographic order of their Out indices and
// truncation at maxPaths keeps the first ones. The first path never
// backtracks: every node one hop closer has a way on.
func (g *Graph) descend(src, dst NodeID, maxPaths int) (count, length int) {
	w := &g.walk
	w.found = w.found[:0]
	var hops int32 // src's distance to dst
	lab, off := g.hopsTo(dst)
	if src != dst {
		if lab[src] == unreachable {
			return 0, 0
		}
		hops = lab[src] + off
	}
	next, cur := append(w.next[:0], 0), w.cur[:0]
	for len(next) > 0 {
		top, n := len(next)-1, src
		if top > 0 {
			n = g.Links[cur[top-1]].Dst
		}
		if n == dst {
			w.found = append(w.found, cur...)
			count++
			if maxPaths > 0 && count >= maxPaths {
				break
			}
		} else {
			want := hops - int32(top) - 1 // the distance one hop closer
			out := g.Nodes[n].Out
			i := next[top]
			for ; i < len(out); i++ {
				m := g.Links[out[i]].Dst
				if m == dst && want == 0 || m != dst && lab[m]+off == want {
					break
				}
			}
			if i < len(out) {
				next[top] = i + 1
				next, cur = append(next, 0), append(cur, out[i])
				continue
			}
		}
		next = next[:top]
		if top > 0 {
			cur = cur[:top-1]
		}
	}
	w.next, w.cur = next, cur
	return count, int(hops)
}

// enumeratePaths is the uncached enumeration behind Paths: one descent, its
// paths copied out into a single backing array.
func (g *Graph) enumeratePaths(src, dst NodeID, maxPaths int) []Path {
	count, length := g.descend(src, dst, maxPaths)
	if count == 0 {
		return nil
	}
	links := append(make([]LinkID, 0, len(g.walk.found)), g.walk.found...)
	paths := make([]Path, count)
	for i := range paths {
		paths[i] = links[i*length : (i+1)*length : (i+1)*length]
	}
	return paths
}

// Diameter returns the maximum over all host pairs of BaseRTT, i.e. the
// network's T_max used in the 3·C·T_max inflight bound. The RTT of a pair is
// that of its first shortest path (Paths(…, 1)[0]), found by one greedy
// descent over the labels, so it adds nothing to the path memo; intended
// for setup, not per-packet use.
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
			if count, _ := g.descend(n.ID, m.ID, 1); count == 0 {
				continue
			}
			if rtt := g.BaseRTT(g.walk.found, mtu); rtt > max {
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
