package topo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ufab/internal/sim"
)

func TestAddDuplexLink(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, TierHost, "a")
	b := g.AddNode(Switch, TierToR, "b")
	ab, ba := g.AddDuplexLink(a, b, Gbps(10), sim.Microsecond)
	if g.Link(ab).Reverse != ba || g.Link(ba).Reverse != ab {
		t.Fatal("reverse pointers wrong")
	}
	if g.Link(ab).Src != a || g.Link(ab).Dst != b {
		t.Fatal("ab endpoints wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddDuplexLinkBadCapacity(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, TierHost, "a")
	b := g.AddNode(Host, TierHost, "b")
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	g.AddDuplexLink(a, b, 0, 0)
}

func TestSerializationDelay(t *testing.T) {
	// 1500 B at 10 Gbps = 1.2 μs.
	got := SerializationDelay(1500, Gbps(10))
	if got != 1200*sim.Nanosecond {
		t.Errorf("1500B@10G = %v, want 1.2us", got)
	}
	// 64 B at 100 Gbps = 5.12 ns.
	got = SerializationDelay(64, Gbps(100))
	if got != 5120*sim.Picosecond {
		t.Errorf("64B@100G = %v, want 5.12ns", got)
	}
}

func TestTestbedShape(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	if len(tb.Servers) != 8 {
		t.Fatalf("servers = %d, want 8", len(tb.Servers))
	}
	if n := len(tb.ToRs) + len(tb.Aggs) + len(tb.Cores); n != 10 {
		t.Fatalf("switches = %d, want 10", n)
	}
	if err := tb.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cross-pod paths: S1 (pod 1) to S5 (pod 2) should have
	// 2 aggs × 2 cores × 2 aggs = 8 equal-cost paths of 6 hops.
	paths := tb.Graph.Paths(tb.Servers[0], tb.Servers[4], 0)
	if len(paths) != 8 {
		t.Fatalf("cross-pod paths = %d, want 8", len(paths))
	}
	for _, p := range paths {
		if len(p) != 6 {
			t.Fatalf("cross-pod path length = %d, want 6", len(p))
		}
	}
	// Same-ToR path: S1→S2 is 2 hops, single path.
	paths = tb.Graph.Paths(tb.Servers[0], tb.Servers[1], 0)
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("same-ToR paths = %v", paths)
	}
}

func TestTestbedBaseRTT(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	paths := tb.Graph.Paths(tb.Servers[0], tb.Servers[4], 1)
	rtt := tb.Graph.BaseRTT(paths[0], 1500)
	// 6 hops × (2 μs prop + 1.2 μs ser) × 2 = 38.4 μs; the paper's 24 μs
	// maximum baseRTT is approximate — just sanity-check the ballpark.
	if rtt < 20*sim.Microsecond || rtt > 60*sim.Microsecond {
		t.Errorf("cross-pod baseRTT = %v, outside sane range", rtt)
	}
}

func TestTwoTierPaths(t *testing.T) {
	tt := NewTwoTier(3, 4, Gbps(10), sim.Microsecond)
	if err := tt.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	paths := tt.Graph.Paths(tt.HostsLeft[0], tt.HostsRight[0], 0)
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3 (one per agg)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Fatalf("path len = %d, want 4", len(p))
		}
		if got := tt.Graph.PathSrc(p); got != tt.HostsLeft[0] {
			t.Errorf("PathSrc = %v", got)
		}
		if got := tt.Graph.PathDst(p); got != tt.HostsRight[0] {
			t.Errorf("PathDst = %v", got)
		}
	}
}

func TestReversePath(t *testing.T) {
	tt := NewTwoTier(2, 2, Gbps(10), sim.Microsecond)
	p := tt.Graph.Paths(tt.HostsLeft[0], tt.HostsRight[1], 1)[0]
	r := tt.Graph.ReversePath(p)
	if len(r) != len(p) {
		t.Fatal("reverse length mismatch")
	}
	if tt.Graph.PathSrc(r) != tt.HostsRight[1] || tt.Graph.PathDst(r) != tt.HostsLeft[0] {
		t.Fatal("reverse endpoints wrong")
	}
	// Reversing twice gives the original.
	rr := tt.Graph.ReversePath(r)
	for i := range p {
		if rr[i] != p[i] {
			t.Fatal("double reverse != original")
		}
	}
}

func TestStar(t *testing.T) {
	st := NewStar(15, Gbps(10), sim.Microsecond)
	if err := st.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	p := st.Graph.Paths(st.Hosts[0], st.Hosts[14], 0)
	if len(p) != 1 || len(p[0]) != 2 {
		t.Fatalf("star paths = %v", p)
	}
}

func TestClos512(t *testing.T) {
	for _, cores := range []int{16, 32} {
		cl := NewClos(Paper512(cores))
		if len(cl.Hosts) != 512 {
			t.Fatalf("cores=%d: hosts = %d, want 512", cores, len(cl.Hosts))
		}
		if err := cl.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
		// Cross-pod host pair must have paths through the core.
		paths := cl.Graph.Paths(cl.Hosts[0], cl.Hosts[len(cl.Hosts)-1], 0)
		if len(paths) == 0 {
			t.Fatalf("cores=%d: no cross-pod path", cores)
		}
		for _, p := range paths {
			if len(p) != 6 {
				t.Fatalf("cores=%d: path len %d, want 6", cores, len(p))
			}
		}
		// Each agg connects to cores/aggsPerPod cores; total cross-pod
		// path count = aggsPerPod × (cores/aggsPerPod) = cores.
		if len(paths) != cores {
			t.Errorf("cores=%d: cross-pod paths = %d, want %d", cores, len(paths), cores)
		}
	}
}

func TestPathsMaxLimit(t *testing.T) {
	cl := NewClos(Paper512(16))
	paths := cl.Graph.Paths(cl.Hosts[0], cl.Hosts[511], 4)
	if len(paths) != 4 {
		t.Fatalf("maxPaths=4 returned %d", len(paths))
	}
}

// SamplePaths is the draw both fabrics made by hand: the whole set when it
// fits, otherwise a seeded shuffle of the first 8k paths cut to k.
func TestSamplePaths(t *testing.T) {
	cl := NewClos(Paper512(16))
	src, dst := cl.Hosts[0], cl.Hosts[511]
	want := cl.Graph.Paths(src, dst, 32)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	if got := cl.Graph.SamplePaths(src, dst, 4, rand.New(rand.NewSource(7))); !reflect.DeepEqual(got, want[:4]) {
		t.Fatalf("sampled %v, want %v", got, want[:4])
	}
	// Two paths fit in k = 4: returned in enumeration order, rng untouched
	// (a nil rng would panic if it were consumed).
	tt := NewTwoTier(2, 1, Gbps(10), sim.Microsecond)
	all := tt.Graph.Paths(tt.HostsLeft[0], tt.HostsRight[0], 0)
	if got := tt.Graph.SamplePaths(tt.HostsLeft[0], tt.HostsRight[0], 4, nil); !reflect.DeepEqual(got, all) {
		t.Fatalf("sampled %v, want all of %v", got, all)
	}
}

func TestPathsSameNode(t *testing.T) {
	st := NewStar(2, Gbps(1), 0)
	if p := st.Graph.Paths(st.Hosts[0], st.Hosts[0], 0); p != nil {
		t.Fatalf("self paths = %v, want nil", p)
	}
}

func TestPathsDisconnected(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, TierHost, "a")
	b := g.AddNode(Host, TierHost, "b")
	if p := g.Paths(a, b, 0); p != nil {
		t.Fatalf("disconnected paths = %v, want nil", p)
	}
}

func TestHosts(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	if got := tb.Graph.Hosts(); len(got) != 8 {
		t.Fatalf("Hosts() = %d, want 8", len(got))
	}
}

func TestDiameter(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	d := tb.Graph.Diameter(1500)
	p := tb.Graph.Paths(tb.Servers[0], tb.Servers[4], 1)[0]
	if want := tb.Graph.BaseRTT(p, 1500); d != want {
		t.Errorf("Diameter = %v, want cross-pod RTT %v", d, want)
	}
}

func TestMinCapacity(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, TierHost, "a")
	s := g.AddNode(Switch, TierToR, "s")
	b := g.AddNode(Host, TierHost, "b")
	l1, _ := g.AddDuplexLink(a, s, Gbps(10), 0)
	l2, _ := g.AddDuplexLink(s, b, Gbps(1), 0)
	if got := g.MinCapacity(Path{l1, l2}); got != Gbps(1) {
		t.Errorf("MinCapacity = %v, want 1G", got)
	}
}

func TestNodeKindString(t *testing.T) {
	if Host.String() != "host" || Switch.String() != "switch" {
		t.Error("NodeKind.String wrong")
	}
}

// Property: all paths returned between any two hosts of a random two-tier
// topology are valid (contiguous, start/end correct) and equal length.
func TestPathsProperty(t *testing.T) {
	f := func(nAggsRaw, hostsRaw uint8) bool {
		nAggs := int(nAggsRaw%6) + 1
		hosts := int(hostsRaw%4) + 1
		tt := NewTwoTier(nAggs, hosts, Gbps(10), sim.Microsecond)
		g := tt.Graph
		src, dst := tt.HostsLeft[0], tt.HostsRight[hosts-1]
		paths := g.Paths(src, dst, 0)
		if len(paths) != nAggs {
			return false
		}
		seen := map[string]bool{}
		for _, p := range paths {
			if g.PathSrc(p) != src || g.PathDst(p) != dst {
				return false
			}
			for i := 1; i < len(p); i++ {
				if g.Links[p[i]].Src != g.Links[p[i-1]].Dst {
					return false
				}
			}
			key := ""
			for _, l := range p {
				key += string(rune(l)) + ","
			}
			if seen[key] {
				return false // duplicate path
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFatTree(t *testing.T) {
	ft := FatTree(4, Gbps(10), sim.Microsecond)
	if err := ft.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// k=4: 16 hosts, 4 cores, 8 aggs, 8 tors.
	if len(ft.Hosts) != 16 || len(ft.Cores) != 4 || len(ft.Aggs) != 8 || len(ft.ToRs) != 8 {
		t.Fatalf("k=4 shape: hosts=%d cores=%d aggs=%d tors=%d",
			len(ft.Hosts), len(ft.Cores), len(ft.Aggs), len(ft.ToRs))
	}
	// Cross-pod pair has (k/2)² = 4 equal-cost paths.
	paths := ft.Graph.Paths(ft.Hosts[0], ft.Hosts[15], 0)
	if len(paths) != 4 {
		t.Fatalf("cross-pod paths = %d, want 4", len(paths))
	}
}

func TestFatTreeBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd arity did not panic")
		}
	}()
	FatTree(3, Gbps(10), 0)
}

func TestChain(t *testing.T) {
	c := NewChain(20, Gbps(10), sim.Microsecond)
	if err := c.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	paths := c.Graph.Paths(c.Src, c.Dst, 0)
	if len(paths) != 1 || len(paths[0]) != 21 {
		t.Fatalf("chain path: %d paths, len %d", len(paths), len(paths[0]))
	}
}
