package vfabric

import (
	"fmt"
	"strings"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// A topology with no lookahead window — here a Clos whose pod↔core links
// have zero propagation delay — cannot be cut, so it is one logical shard,
// and one shard runs inline whatever worker count was asked for. Build used
// to accept it at Shards 0 only and return "cannot shard topology" at N ≥ 1,
// which the experiment harness turned into a panic.
func TestBuildUnpartitionableTopologyIsOneShard(t *testing.T) {
	run := func(workers int) string {
		cl := topo.NewClos(topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Cores: 2,
			HostsPerToR: 2, LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
		g := cl.Graph
		for i := range g.Links {
			l := &g.Links[i]
			if g.Node(l.Src).Tier == topo.TierCore || g.Node(l.Dst).Tier == topo.TierCore {
				l.PropDelay = 0
			}
		}
		f, err := Build(BuildOptions{Graph: g, Cfg: Config{Seed: 5}, Shards: workers})
		if err != nil {
			t.Fatalf("Shards %d: %v", workers, err)
		}
		if got := f.Net.Shards(); got != 1 {
			t.Fatalf("Shards %d: %d logical shards, want 1", workers, got)
		}
		// Every flow leaves its pod, fed from inside its host's context as
		// shardsim's are, with a sampling tick on the coordinator.
		for i, src := range cl.Hosts {
			vf := f.AddVF(int32(i+1), 1e9, 2)
			fl := f.AddFlow(vf, src, cl.Hosts[(i+len(cl.Hosts)/2)%len(cl.Hosts)], 0)
			workload.FixedRate(f.HostScheduler(src), fl.Buffer, 2e9, 0)
		}
		stop := f.StartSampling(250 * sim.Microsecond)
		f.Eng.RunUntil(2 * sim.Millisecond)
		stop()
		var out strings.Builder
		fmt.Fprintf(&out, "events %d drops %d\n", f.Eng.(sim.StatsSource).Stats().Processed, f.Net.TotalDrops)
		for i, fl := range f.Flows {
			fmt.Fprintf(&out, "flow %d delivered %d\n", i, fl.Pair.Delivered)
		}
		if f.Flows[0].Pair.Delivered == 0 {
			t.Fatalf("Shards %d: nothing delivered", workers)
		}
		return out.String()
	}
	if inline, four := run(0), run(4); inline != four {
		t.Fatalf("output differs between Shards 0 and 4:\n%s\nvs\n%s", inline, four)
	}
}

// A tenant is one record in the fabric's tenant table, however many edges
// the fabric has: registering one on a 128-host fat tree allocates no more
// than on a two-host star. (Every edge used to register every tenant — 128
// vfStates, map entries and list slots per AddVF here.)
func TestAddVFCostDoesNotGrowWithHosts(t *testing.T) {
	allocs := func(g *topo.Graph) float64 {
		f, err := Build(BuildOptions{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		id := int32(0)
		return testing.AllocsPerRun(300, func() {
			id++
			f.AddVF(id, 1e9, int(id%8))
		})
	}
	star := allocs(topo.NewStar(2, topo.Gbps(10), sim.Microsecond).Graph)
	tree := allocs(topo.FatTree(8, topo.Gbps(10), sim.Microsecond).Graph)
	if tree > star {
		t.Errorf("AddVF allocates %v times on a 128-host fat tree, %v on a 2-host star: want no more", tree, star)
	}
}
