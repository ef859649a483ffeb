package topo

import (
	"testing"

	"ufab/internal/sim"
)

// checkPartition verifies the structural invariants the partitioned engine
// depends on: every node is assigned, every link either stays inside one
// shard or crosses exactly one boundary whose propagation delay is at least
// the declared minimum, and non-core nodes of one pod share a shard.
func checkPartition(t *testing.T, g *Graph, p *Partition) {
	t.Helper()
	if p.Shards < 1 {
		t.Fatalf("Shards = %d", p.Shards)
	}
	for id, s := range p.Node {
		if s < 0 || int(s) >= p.Shards {
			t.Fatalf("node %d assigned to out-of-range shard %d", id, s)
		}
	}
	cuts := 0
	for _, l := range g.Links {
		a, b := p.Node[l.Src], p.Node[l.Dst]
		if a == b {
			continue
		}
		cuts++
		// A link has two endpoints, so it can cross at most one shard
		// boundary; what the lookahead needs is that every crossing
		// carries at least the declared minimum latency.
		if l.PropDelay < p.MinCutDelay {
			t.Errorf("cut link %d has delay %v below declared minimum %v", l.ID, l.PropDelay, p.MinCutDelay)
		}
		// Pod partition: only pod↔core hops may be cut. Host and ToR
		// links always stay inside their pod shard.
		st, dt := g.Nodes[l.Src].Tier, g.Nodes[l.Dst].Tier
		if st != TierCore && dt != TierCore {
			t.Errorf("cut link %d crosses shards without touching the core tier (%v→%v)", l.ID, st, dt)
		}
	}
	if cuts != p.CutLinks {
		t.Errorf("CutLinks = %d, found %d", p.CutLinks, cuts)
	}
}

func TestPartitionClos(t *testing.T) {
	cl := NewClos(ClosConfig{Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4})
	p, err := PartitionPods(cl.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 4 {
		t.Fatalf("Shards = %d, want one per pod (4)", p.Shards)
	}
	checkPartition(t, cl.Graph, p)
	if p.MinCutDelay != cl.Cfg.PropDelay {
		t.Errorf("MinCutDelay = %v, want uniform link delay %v", p.MinCutDelay, cl.Cfg.PropDelay)
	}
	// Hosts under the same ToR share their ToR's shard.
	for i, h := range cl.Hosts {
		tor := cl.ToRs[i/cl.Cfg.HostsPerToR]
		if p.Node[h] != p.Node[tor] {
			t.Errorf("host %d in shard %d, its ToR in %d", h, p.Node[h], p.Node[tor])
		}
	}
	// Cores are spread round-robin, so with 4 cores and 4 pods each pod
	// shard owns exactly one.
	perShard := make([]int, p.Shards)
	for _, c := range cl.Cores {
		perShard[p.Node[c]]++
	}
	for s, n := range perShard {
		if n != 1 {
			t.Errorf("shard %d owns %d cores, want 1", s, n)
		}
	}
}

func TestPartitionFatTree(t *testing.T) {
	ft := FatTree(4, Gbps(100), sim.Microsecond)
	p, err := PartitionPods(ft.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 4 {
		t.Fatalf("Shards = %d, want 4 pods", p.Shards)
	}
	checkPartition(t, ft.Graph, p)
	// Every agg↔core link is potentially cut; each agg has k/2 = 2 core
	// uplinks, 8 aggs total, 2 directions — minus those whose core
	// landed in the same pod shard.
	if p.CutLinks == 0 || p.CutLinks%2 != 0 {
		t.Errorf("CutLinks = %d, want a positive even count", p.CutLinks)
	}
}

func TestPartitionTestbed(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	p, err := PartitionPods(tb.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 2 {
		t.Fatalf("Shards = %d, want 2 pods", p.Shards)
	}
	checkPartition(t, tb.Graph, p)
}

// TestPartitionCorelessGraph pins the degenerate single-shard case: no core
// tier means one shard and no cut links, which the partitioned engine runs with
// an unbounded window.
func TestPartitionCorelessGraph(t *testing.T) {
	st := NewStar(4, Gbps(10), sim.Microsecond)
	p, err := PartitionPods(st.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 1 || p.CutLinks != 0 || p.MinCutDelay != 0 {
		t.Fatalf("star partition = %+v, want 1 shard, no cuts", p)
	}
	checkPartition(t, st.Graph, p)
}

// TestPartitionZeroDelayCutRejected pins the error path: a cut link with no
// propagation delay leaves no safe lookahead window.
func TestPartitionZeroDelayCutRejected(t *testing.T) {
	g := &Graph{}
	h1 := g.AddNode(Host, TierHost, "h1")
	t1 := g.AddNode(Switch, TierToR, "t1")
	h2 := g.AddNode(Host, TierHost, "h2")
	t2 := g.AddNode(Switch, TierToR, "t2")
	c := g.AddNode(Switch, TierCore, "c")
	g.AddDuplexLink(h1, t1, Gbps(10), sim.Microsecond)
	g.AddDuplexLink(h2, t2, Gbps(10), sim.Microsecond)
	// The lone core round-robins into shard 0 (t1's pod), so the t2↔c
	// links are the cut ones — give them the zero delay.
	g.AddDuplexLink(t1, c, Gbps(10), sim.Microsecond)
	g.AddDuplexLink(t2, c, Gbps(10), 0)
	if _, err := PartitionPods(g); err == nil {
		t.Fatal("zero-delay cut link not rejected")
	}
}
