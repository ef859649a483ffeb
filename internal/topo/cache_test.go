package topo

import (
	"testing"

	"ufab/internal/sim"
)

// pathsEqual reports whether two path sets are identical element-wise.
func pathsEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestPathsCacheHit: repeated calls return identical results, and the
// second call is served from the cache.
func TestPathsCacheHit(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	g := tb.Graph
	first := g.Paths(tb.Servers[0], tb.Servers[4], 0)
	if g.pathCache == nil || len(g.pathCache) == 0 {
		t.Fatal("cache not populated after first call")
	}
	second := g.Paths(tb.Servers[0], tb.Servers[4], 0)
	if !pathsEqual(first, second) {
		t.Fatal("cached result differs from first enumeration")
	}
}

// TestPathsCacheFreshOuterSlice: callers reorder the returned slice
// (vfabric.sampleRoutes shuffles it); the cache must hand out a fresh
// outer slice each call so one caller's reordering cannot leak into
// another's result.
func TestPathsCacheFreshOuterSlice(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	g := tb.Graph
	a := g.Paths(tb.Servers[0], tb.Servers[4], 0)
	if len(a) < 2 {
		t.Fatalf("need ≥2 paths, got %d", len(a))
	}
	// Reverse the caller's copy in place.
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
	b := g.Paths(tb.Servers[0], tb.Servers[4], 0)
	// b must come back in canonical enumeration order, unaffected.
	fresh := g.enumeratePaths(tb.Servers[0], tb.Servers[4], 0)
	if !pathsEqual(b, fresh) {
		t.Fatal("cached result was perturbed by caller mutation of outer slice")
	}
}

// TestPathsCacheKeyedByMax: different maxPaths values are distinct cache
// entries with correct truncation.
func TestPathsCacheKeyedByMax(t *testing.T) {
	tb := NewTestbed(TestbedConfig{})
	g := tb.Graph
	all := g.Paths(tb.Servers[0], tb.Servers[4], 0)
	two := g.Paths(tb.Servers[0], tb.Servers[4], 2)
	if len(all) != 8 || len(two) != 2 {
		t.Fatalf("len(all)=%d len(two)=%d, want 8 and 2", len(all), len(two))
	}
	// Again, now both served from cache.
	if got := g.Paths(tb.Servers[0], tb.Servers[4], 0); len(got) != 8 {
		t.Fatalf("cached all = %d paths, want 8", len(got))
	}
	if got := g.Paths(tb.Servers[0], tb.Servers[4], 2); len(got) != 2 {
		t.Fatalf("cached two = %d paths, want 2", len(got))
	}
}

// TestPathsCacheInvalidation: mutating the graph drops the cache and the
// hop-count labels, and the next enumeration sees the new topology.
func TestPathsCacheInvalidation(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, TierHost, "a")
	s1 := g.AddNode(Switch, TierToR, "s1")
	b := g.AddNode(Host, TierHost, "b")
	g.AddDuplexLink(a, s1, Gbps(10), sim.Microsecond)
	g.AddDuplexLink(s1, b, Gbps(10), sim.Microsecond)
	if got := g.Paths(a, b, 0); len(got) != 1 {
		t.Fatalf("paths = %d, want 1", len(got))
	}
	// Add a second equal-cost route a→s2→b: the cache must be dropped by
	// both the AddNode and the AddDuplexLink calls.
	s2 := g.AddNode(Switch, TierToR, "s2")
	if g.pathCache != nil || g.labels != nil {
		t.Fatal("AddNode did not invalidate the path cache and the labels")
	}
	g.Paths(a, b, 0) // repopulate
	g.AddDuplexLink(a, s2, Gbps(10), sim.Microsecond)
	if g.pathCache != nil || g.labels != nil {
		t.Fatal("AddDuplexLink did not invalidate the path cache and the labels")
	}
	g.AddDuplexLink(s2, b, Gbps(10), sim.Microsecond)
	if got := g.Paths(a, b, 0); len(got) != 2 {
		t.Fatalf("after adding s2: paths = %d, want 2", len(got))
	}
}

// TestPathsCacheNilResult: unreachable pairs cache their nil result too.
func TestPathsCacheNilResult(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(Host, TierHost, "a")
	b := g.AddNode(Host, TierHost, "b")
	if p := g.Paths(a, b, 0); p != nil {
		t.Fatalf("disconnected = %v, want nil", p)
	}
	if _, ok := g.pathCache[pathKey{src: a, dst: b, max: 0}]; !ok {
		t.Fatal("nil result not cached")
	}
	if p := g.Paths(a, b, 0); p != nil {
		t.Fatalf("cached disconnected = %v, want nil", p)
	}
}

// BenchmarkPathsCold measures raw enumeration on the 3-tier Clos
// (cache defeated by invalidating between iterations); BenchmarkPathsWarm
// measures the memoized path. The ratio is the win the subscription
// ledger and sampleRoutes see on every admit after the first.
func BenchmarkPathsCold(b *testing.B) {
	cl := NewClos(Paper512(16))
	g := cl.Graph
	src, dst := cl.Hosts[0], cl.Hosts[len(cl.Hosts)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.invalidatePaths()
		if p := g.Paths(src, dst, 0); len(p) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkPathsWarm(b *testing.B) {
	cl := NewClos(Paper512(16))
	g := cl.Graph
	src, dst := cl.Hosts[0], cl.Hosts[len(cl.Hosts)-1]
	g.Paths(src, dst, 0) // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := g.Paths(src, dst, 0); len(p) == 0 {
			b.Fatal("no paths")
		}
	}
}
