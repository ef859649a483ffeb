package ufabe

import (
	"testing"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/ufabc"
)

// twoPathRig builds a 2-agg two-tier topology with agents everywhere.
type twoPathRig struct {
	eng    *sim.Engine
	net    *dataplane.Network
	tt     *topo.TwoTier
	ten    *Tenancy
	agents map[topo.NodeID]*Agent
}

func newTwoPathRig(t *testing.T, cfg Config, dpCfg dataplane.Config) *twoPathRig {
	t.Helper()
	eng := sim.New()
	tt := topo.NewTwoTier(2, 3, topo.Gbps(10), 5*sim.Microsecond)
	net := dataplane.New(eng, tt.Graph, dpCfg)
	for _, n := range tt.Graph.Nodes {
		if n.Kind == topo.Switch {
			net.SetSwitchAgent(n.ID, ufabc.New(ufabc.Config{}))
		}
	}
	r := &twoPathRig{eng: eng, net: net, tt: tt, ten: &Tenancy{}, agents: map[topo.NodeID]*Agent{}}
	for _, h := range tt.Graph.Hosts() {
		net.SetSwitchAgent(h, ufabc.New(ufabc.Config{}))
		r.agents[h] = New(eng, net, h, cfg, r.ten)
	}
	return r
}

func (r *twoPathRig) pair(id dataplane.VMPair, i int, phi float64) (*Pair, *Buffer) {
	src, dst := r.tt.HostsLeft[i], r.tt.HostsRight[i]
	a := r.agents[src]
	if r.ten.byID[int32(id)] == nil {
		r.ten.Add(int32(id), phi, 3)
	}
	buf := &Buffer{}
	p := a.AddPair(PairConfig{
		ID: id, VF: int32(id), Dst: dst,
		Routes: r.tt.Graph.Paths(src, dst, 0),
		Phi:    phi, Demand: buf,
	})
	return p, buf
}

func TestViolationMigration(t *testing.T) {
	// Three 40-token (4G) pairs cannot share one 10G path; after
	// violation detection at least one migrates and all reach ≥3.5G.
	r := newTwoPathRig(t, Config{Seed: 3}, dataplane.Config{})
	var pairs []*Pair
	for i := 0; i < 3; i++ {
		p, buf := r.pair(dataplane.VMPair(i+1), i, 40)
		buf.Add(1 << 42)
		pairs = append(pairs, p)
	}
	r.eng.RunUntil(20 * sim.Millisecond)
	migrations := 0
	for i, p := range pairs {
		migrations += p.Migrations
		rate := float64(p.Delivered*8) / (20 * sim.Millisecond).Seconds()
		if rate < 3e9 {
			t.Errorf("pair %d long-run rate %.2f G", i, rate/1e9)
		}
	}
	if migrations == 0 {
		t.Error("no migrations despite initial collisions being likely")
	}
	// Distinct active paths at the end.
	paths := map[int]int{}
	for _, p := range pairs {
		paths[p.ActivePathID()]++
	}
	for _, n := range paths {
		if n == 3 {
			t.Error("all pairs still share one path")
		}
	}
}

func TestProbeTimeoutDetectsDeadPath(t *testing.T) {
	// Failing the active path's agg makes probes time out; the pair
	// must migrate to the surviving path and keep delivering.
	r := newTwoPathRig(t, Config{Seed: 4}, dataplane.Config{})
	p, buf := r.pair(1, 0, 20)
	buf.Add(1 << 42)
	r.eng.RunUntil(3 * sim.Millisecond)
	activeAgg := r.tt.Graph.Link(p.ActivePath()[1]).Dst
	r.net.FailNode(activeAgg)
	r.eng.RunUntil(15 * sim.Millisecond)
	if p.Migrations == 0 {
		t.Fatal("no migration after path death")
	}
	for _, lid := range p.ActivePath() {
		l := r.tt.Graph.Link(lid)
		if l.Src == activeAgg || l.Dst == activeAgg {
			t.Fatal("still routed through the failed agg")
		}
	}
	// reclaimOrphans/RTO must have recovered the stranded bytes.
	before := p.Delivered
	r.eng.RunUntil(18 * sim.Millisecond)
	if p.Delivered <= before {
		t.Fatal("delivery stalled after failure recovery")
	}
	if p.Losses == 0 {
		t.Error("no loss episodes recorded despite the path death")
	}
}

func TestWorkConservationMigration(t *testing.T) {
	// Trigger (ii): a pair parked on a path shared with a heavy
	// competitor should, after betterPathHold, move to the idle path
	// even though its guarantee is technically satisfied.
	cfg := Config{
		Seed:                   5,
		betterPathHold:         2 * sim.Millisecond,
		CandidateProbeInterval: 500 * sim.Microsecond,
	}
	r := newTwoPathRig(t, cfg, dataplane.Config{})
	// Competitor: 60 tokens pinned via a single-candidate pair on path 0.
	compBuf := &Buffer{}
	src, dst := r.tt.HostsLeft[1], r.tt.HostsRight[1]
	r.ten.Add(9, 60, 5)
	comp := r.agents[src].AddPair(PairConfig{
		ID: 9, VF: 9, Dst: dst,
		Routes: r.tt.Graph.Paths(src, dst, 0)[:1],
		Phi:    60, Demand: compBuf,
	})
	compBuf.Add(1 << 42)
	r.eng.RunUntil(sim.Millisecond)
	// Subject: 10 tokens; force its initial path onto the competitor's
	// path by giving it that path first... candidates include both; pin
	// its start by setting active manually after creation.
	p, buf := r.pair(1, 0, 10)
	buf.Add(1 << 42)
	// Force the subject onto the competitor's agg path.
	compAgg := r.tt.Graph.Link(comp.ActivePath()[1]).Dst
	for i, ps := range p.paths {
		if r.tt.Graph.Link(ps.route[1]).Dst == compAgg {
			p.active = i
			break
		}
	}
	before := p.ActivePathID()
	r.eng.RunUntil(12 * sim.Millisecond)
	rate := float64(p.Delivered*8) / (12 * sim.Millisecond).Seconds()
	// Whether via trigger (i) or (ii), the subject must end up away
	// from the competitor with a work-conserving rate.
	sameAgg := r.tt.Graph.Link(p.ActivePath()[1]).Dst == compAgg
	if sameAgg && rate < 2e9 {
		t.Errorf("subject stuck with competitor at %.2f G (path %d→%d)",
			rate/1e9, before, p.ActivePathID())
	}
	if rate < 1.5e9 {
		t.Errorf("subject rate %.2f G, want work conservation beyond its 1G guarantee", rate/1e9)
	}
}

func TestAgentAccessors(t *testing.T) {
	r := newTwoPathRig(t, Config{Seed: 6}, dataplane.Config{})
	a := r.agents[r.tt.HostsLeft[0]]
	if a.Host() != r.tt.HostsLeft[0] {
		t.Error("Host() wrong")
	}
	if c := a.Config(); c.probeTimeoutRTTs != 8 || c.Seed != 6 {
		t.Errorf("Config() = %+v, want the defaults filled around Seed 6", c)
	}
	a.Stop() // idempotent-ish: just must not panic
}

func TestRTORecoversTailDrops(t *testing.T) {
	// Tiny buffers force tail drops even for μFAB's bounded bursts
	// during bootstrap; the RTO must requeue so a finite message still
	// completes in full.
	r := newTwoPathRig(t, Config{Seed: 7}, dataplane.Config{QueueCapBytes: 9000})
	p, buf := r.pair(1, 0, 40)
	q, buf2 := r.pair(2, 1, 40)
	const msg = 2_000_000
	buf.Add(msg)
	buf2.Add(msg)
	r.eng.RunUntil(60 * sim.Millisecond)
	if p.Delivered != msg || q.Delivered != msg {
		t.Fatalf("delivered %d/%d of %d (drops=%d)", p.Delivered, q.Delivered, msg, r.net.TotalDrops)
	}
}

func TestLongPathPartialTelemetry(t *testing.T) {
	// A path longer than probe.MaxHops: switches beyond the 15th cannot
	// stamp INT records, and the edge must keep working off the partial
	// telemetry it gets.
	eng := sim.New()
	ch := topo.NewChain(18, topo.Gbps(10), sim.Microsecond)
	net := dataplane.New(eng, ch.Graph, dataplane.Config{})
	for _, sw := range ch.Switches {
		net.SetSwitchAgent(sw, ufabc.New(ufabc.Config{}))
	}
	ten := &Tenancy{}
	src := New(eng, net, ch.Src, Config{Seed: 8}, ten)
	New(eng, net, ch.Dst, Config{Seed: 8}, ten)
	ten.Add(1, 20, 3)
	buf := &Buffer{}
	p := src.AddPair(PairConfig{
		ID: 1, VF: 1, Dst: ch.Dst,
		Routes: ch.Graph.Paths(ch.Src, ch.Dst, 0),
		Phi:    20, Demand: buf,
	})
	buf.Add(3_000_000)
	eng.RunUntil(20 * sim.Millisecond)
	if p.Delivered != 3_000_000 {
		t.Fatalf("delivered %d over the long path", p.Delivered)
	}
	ps := p.paths[p.active]
	if !ps.responded {
		t.Fatal("no response over the long path")
	}
	if len(src.resp.Hops) != 15 {
		t.Fatalf("stamped hops = %d, want MaxHops=15", len(src.resp.Hops))
	}
}
