package topo

import (
	"fmt"

	"ufab/internal/sim"
)

// Partition assigns every node of a graph to a logical shard for the
// parallel-in-time simulation core. The partition follows the fabric's pod
// structure: removing the core tier splits a Clos/fat-tree into its pods
// (hosts, ToRs and aggs stay together), each becoming one shard, and the
// core switches are distributed round-robin across the pod shards so
// inter-pod forwarding load spreads over all workers. Every cut link — a
// link whose endpoints land on different shards — is then a pod↔core hop,
// whose propagation delay lower-bounds the conservative-lookahead window.
type Partition struct {
	// Shards is the number of logical shards (= connected components of
	// the graph with core switches removed, or 1 for core-less graphs).
	Shards int
	// Node maps each NodeID to its shard.
	Node []int32
	// MinCutDelay is the smallest propagation delay over all cut links;
	// it is the widest safe lookahead window. Zero when no link is cut.
	MinCutDelay sim.Duration
	// CutLinks counts directed links crossing a shard boundary.
	CutLinks int
}

// PartitionPods computes the pod partition of g. It fails if a cut link has
// a non-positive propagation delay, which would leave no safe lookahead
// window between the shards.
func PartitionPods(g *Graph) (*Partition, error) {
	p := &Partition{Node: make([]int32, len(g.Nodes))}
	const unassigned = int32(-1)
	for i := range p.Node {
		p.Node[i] = unassigned
	}
	// Flood-fill the graph with core switches removed: each component is
	// one pod shard. Seeding in node-ID order keeps shard numbering a
	// pure function of the topology.
	var next int32
	var stack []NodeID
	for _, n := range g.Nodes {
		if n.Tier == TierCore || p.Node[n.ID] != unassigned {
			continue
		}
		shard := next
		next++
		stack = append(stack[:0], n.ID)
		p.Node[n.ID] = shard
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, lid := range g.Nodes[v].Out {
				m := g.Links[lid].Dst
				if g.Nodes[m].Tier == TierCore || p.Node[m] != unassigned {
					continue
				}
				p.Node[m] = shard
				stack = append(stack, m)
			}
		}
	}
	if next == 0 {
		// Core-only (or empty) graph: a single shard owns everything.
		next = 1
	}
	p.Shards = int(next)
	// Spread core switches round-robin over the pod shards, in node-ID
	// order for determinism.
	core := 0
	for _, n := range g.Nodes {
		if n.Tier != TierCore {
			continue
		}
		p.Node[n.ID] = int32(core % p.Shards)
		core++
	}
	// Enumerate cut links and the minimum cross-shard latency.
	for _, l := range g.Links {
		if p.Node[l.Src] == p.Node[l.Dst] {
			continue
		}
		p.CutLinks++
		if l.PropDelay <= 0 {
			return nil, fmt.Errorf("topo: cut link %d (%s→%s) has non-positive propagation delay %v; no safe lookahead window",
				l.ID, g.Nodes[l.Src].Name, g.Nodes[l.Dst].Name, l.PropDelay)
		}
		if p.MinCutDelay == 0 || l.PropDelay < p.MinCutDelay {
			p.MinCutDelay = l.PropDelay
		}
	}
	return p, nil
}

// Shard returns the shard owning node id.
func (p *Partition) Shard(id NodeID) int { return int(p.Node[id]) }
