package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

func testbedGraph() (*topo.Graph, []topo.NodeID) {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	return tb.Graph, tb.Servers
}

func TestLedgerCommitRelease(t *testing.T) {
	g, servers := testbedGraph()
	l := NewLedger(g, 0)
	pairs := []Pair{{Src: servers[0], Dst: servers[4]}}
	if err := l.Commit(1, 2e9, pairs); err != nil {
		t.Fatal(err)
	}
	// The host uplink S1→ToR carries the pair on every ECMP path: it must
	// hold exactly the guarantee.
	up := g.Node(servers[0]).Out[0]
	if got := l.CommittedBps(up); got != 2e9 {
		t.Fatalf("uplink committed = %v, want 2e9", got)
	}
	if l.MaxSubscription() <= 0 {
		t.Fatal("MaxSubscription = 0 after commit")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if !l.Release(1) {
		t.Fatal("Release returned false")
	}
	for i := range g.Links {
		if got := l.CommittedBps(topo.LinkID(i)); got != 0 {
			t.Fatalf("link %d residue %v after release", i, got)
		}
	}
	if l.Release(1) {
		t.Fatal("double release succeeded")
	}
}

func TestLedgerRejects(t *testing.T) {
	g, servers := testbedGraph()
	l := NewLedger(g, 0)
	pairs := []Pair{{Src: servers[0], Dst: servers[1]}}
	if err := l.Commit(1, 0, pairs); err == nil {
		t.Fatal("zero guarantee accepted")
	}
	if err := l.Commit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1, 1e9, pairs); err == nil {
		t.Fatal("duplicate id accepted")
	}
	// Unroutable pair: same node (Paths returns nil).
	if err := l.Commit(2, 1e9, []Pair{{Src: servers[0], Dst: servers[0]}}); err == nil {
		t.Fatal("self-loop pair accepted")
	}
	if l.Has(2) {
		t.Fatal("failed commit left tenant registered")
	}
	// An endpoint outside the graph, negative, or naming a switch is
	// errInvalid on every entry point — after a good first pair, so the
	// scratch that pair filled must be reset, not leak into tenant 3.
	tor := g.Link(g.Node(servers[0]).Out[0]).Dst
	for _, bad := range []topo.NodeID{9999, -1, tor} {
		for _, pr := range []Pair{{Src: servers[2], Dst: bad}, {Src: bad, Dst: servers[2]}} {
			ps := []Pair{{Src: servers[2], Dst: servers[3]}, pr}
			if _, _, err := l.Evaluate(1e9, ps); !errors.Is(err, errInvalid) {
				t.Fatalf("Evaluate %v: %v, want ErrInvalid", pr, err)
			}
			if err := l.Fits(1e9, ps); !errors.Is(err, errInvalid) {
				t.Fatalf("Fits %v: %v, want ErrInvalid", pr, err)
			}
			if err := l.Commit(2, 1e9, ps); !errors.Is(err, errInvalid) {
				t.Fatalf("Commit %v: %v, want ErrInvalid", pr, err)
			}
			if err := l.Admit(2, 1e9, ps); !errors.Is(err, errInvalid) {
				t.Fatalf("Admit %v: %v, want ErrInvalid", pr, err)
			}
		}
	}
	if err := l.Commit(3, 1e9, []Pair{{Src: servers[2], Dst: servers[3]}}); err != nil {
		t.Fatal(err)
	}
	if got := l.CommittedBps(g.Node(servers[2]).Out[0]); got != 1e9 {
		t.Fatalf("uplink of S3 carries %v after the rejected pairs, want 1e9", got)
	}
	if l.Has(2) || l.Tenants() != 2 {
		t.Fatalf("rejected pairs left tenant state: %d tenants", l.Tenants())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Multiple pairs of one tenant sharing a link each contribute; multiple
// candidate paths of one pair sharing a link contribute once.
func TestLedgerPairDedup(t *testing.T) {
	g, servers := testbedGraph()
	l := NewLedger(g, 0)
	// Two pairs, both sourced at S1: the S1 uplink carries both chains.
	pairs := []Pair{
		{Src: servers[0], Dst: servers[4]},
		{Src: servers[0], Dst: servers[5]},
	}
	if err := l.Commit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	up := g.Node(servers[0]).Out[0]
	if got := l.CommittedBps(up); got != 2e9 {
		t.Fatalf("shared uplink = %v, want 2e9 (once per pair)", got)
	}
	// A cross-pod core link appears on several ECMP paths of one pair but
	// must carry at most 1e9 per pair.
	for i := range g.Links {
		if got := l.CommittedBps(topo.LinkID(i)); got > 2e9+1e-6 {
			t.Fatalf("link %d committed %v, exceeds 2 pairs × G", i, got)
		}
	}
}

func TestLedgerMaxPathsBound(t *testing.T) {
	g, servers := testbedGraph()
	all := NewLedger(g, 0)
	one := NewLedger(g, 1)
	pairs := []Pair{{Src: servers[0], Dst: servers[4]}}
	if err := all.Commit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	if err := one.Commit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	nAll, nOne := 0, 0
	for i := range g.Links {
		if all.CommittedBps(topo.LinkID(i)) > 0 {
			nAll++
		}
		if one.CommittedBps(topo.LinkID(i)) > 0 {
			nOne++
		}
	}
	if nOne >= nAll {
		t.Fatalf("maxPaths=1 touched %d links, full union %d — bound has no effect", nOne, nAll)
	}
}

func testClos() *topo.Clos {
	return topo.NewClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
}

// Property (quick-check style, seeded): arbitrary admit/release
// interleavings leave the incrementally maintained ledger equal to
// Verify()'s from-scratch recompute, with zero residue once every tenant
// has departed. Each seed runs twice: unbudgeted (Commit — every arrival
// lands) and budgeted (Admit at the given oversubscription — arrivals
// that would overshoot bounce with errHeadroom, and after every op no
// link may exceed Oversubscription × capacity). This test is in the -race
// CI row.
func TestLedgerPropertyRandomChurn(t *testing.T) {
	cl := testClos()
	g, hosts := cl.Graph, cl.Hosts
	for _, oversub := range []float64{0, 1.0, 1.5} { // 0 = unbudgeted Commit
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			rng := rand.New(rand.NewSource(seed))
			l := NewLedger(g, 0)
			l.Oversubscription = oversub
			live := []int32{}
			next := int32(1)
			bounced := 0
			for op := 0; op < 400; op++ {
				if len(live) == 0 || rng.Intn(100) < 55 {
					// Admit a tenant with 1..4 random pairs.
					n := 1 + rng.Intn(4)
					pairs := make([]Pair, 0, n)
					for len(pairs) < n {
						s := hosts[rng.Intn(len(hosts))]
						d := hosts[rng.Intn(len(hosts))]
						if s == d {
							continue
						}
						pairs = append(pairs, Pair{Src: s, Dst: d})
					}
					gbps := float64(1+rng.Intn(40)) * 1e8
					var err error
					if oversub == 0 {
						err = l.Commit(next, gbps, pairs)
					} else {
						err = l.Admit(next, gbps, pairs)
					}
					switch {
					case err == nil:
						live = append(live, next)
					case oversub != 0 && errors.Is(err, errHeadroom):
						bounced++
						if l.Has(next) {
							t.Fatalf("oversub %v seed %d op %d: bounced tenant registered", oversub, seed, op)
						}
						if fits := l.Fits(gbps, pairs); !errors.Is(fits, errHeadroom) {
							t.Fatalf("oversub %v seed %d op %d: Admit bounced but Fits = %v", oversub, seed, op, fits)
						}
					default:
						t.Fatalf("oversub %v seed %d op %d: %v", oversub, seed, op, err)
					}
					next++
				} else {
					i := rng.Intn(len(live))
					if !l.Release(live[i]) {
						t.Fatalf("oversub %v seed %d op %d: release %d failed", oversub, seed, op, live[i])
					}
					live = append(live[:i], live[i+1:]...)
				}
				if oversub != 0 {
					for i := range g.Links {
						if c, budget := l.CommittedBps(topo.LinkID(i)), oversub*g.Links[i].Capacity; c > budget+1e-6 {
							t.Fatalf("oversub %v seed %d op %d: link %d committed %v over budget %v", oversub, seed, op, i, c, budget)
						}
					}
				}
				if oversub != 0 || op%20 == 0 {
					if err := l.Verify(); err != nil {
						t.Fatalf("oversub %v seed %d op %d: %v", oversub, seed, op, err)
					}
				}
			}
			if oversub == 1.0 && bounced == 0 {
				t.Fatalf("seed %d: budgeted run never hit the headroom check", seed)
			}
			if err := l.Verify(); err != nil {
				t.Fatalf("oversub %v seed %d final: %v", oversub, seed, err)
			}
			// Drain everyone: the ledger must return to exactly zero.
			for _, id := range append([]int32{}, live...) {
				l.Release(id)
			}
			for i := range g.Links {
				if got := l.CommittedBps(topo.LinkID(i)); got != 0 {
					t.Fatalf("oversub %v seed %d: link %d residue %v after full drain", oversub, seed, i, got)
				}
			}
			if err := l.Verify(); err != nil {
				t.Fatalf("oversub %v seed %d drained: %v", oversub, seed, err)
			}
		}
	}
}

// TestLedgerConcurrentChurn hammers Admit/Release from many goroutines
// (run under -race in CI); after the drain the ledger must verify with
// zero residue.
func TestLedgerConcurrentChurn(t *testing.T) {
	cl := testClos()
	hosts := cl.Hosts
	l := NewLedger(cl.Graph, 4)

	const workers = 8
	var next int32 // atomic tenant-id source
	var admitted, rejected int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var held []int32
			for i := 0; i < 500; i++ {
				id := atomic.AddInt32(&next, 1)
				a := hosts[rng.Intn(len(hosts))]
				b := hosts[rng.Intn(len(hosts))]
				if a == b {
					continue
				}
				err := l.Admit(id, 2e9, []Pair{{Src: a, Dst: b}})
				if err == nil {
					atomic.AddInt64(&admitted, 1)
					held = append(held, id)
				} else if errors.Is(err, errHeadroom) {
					atomic.AddInt64(&rejected, 1)
				} else {
					t.Errorf("unexpected admit error: %v", err)
					return
				}
				if len(held) > 16 {
					if !l.Release(held[0]) {
						t.Errorf("release of own tenant %d failed", held[0])
						return
					}
					held = held[1:]
				}
			}
			for _, id := range held {
				l.Release(id)
			}
		}(w)
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatal("no admissions went through")
	}
	if l.Tenants() != 0 {
		t.Fatalf("%d tenants left after drain", l.Tenants())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("post-drain verify: %v", err)
	}
	if max := l.MaxSubscription(); max > 1e-9 {
		t.Fatalf("residual subscription %v after full drain", max)
	}
}

// TestLedgerHeadroomAtomic checks the property Admit's single lock exists
// for: concurrent admissions racing for the same bottleneck link can
// never jointly exceed the budget.
func TestLedgerHeadroomAtomic(t *testing.T) {
	cl := testClos()
	hosts := cl.Hosts
	// Oversub 1.0 on 10G links; each tenant wants 3G on the same
	// host-pair, so exactly 3 of the 12 racing admissions fit — the rest
	// must bounce off the budget check.
	l := NewLedger(cl.Graph, 1)
	a, b := hosts[0], hosts[len(hosts)-1]

	var wg sync.WaitGroup
	for id := int32(1); id <= 12; id++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			err := l.Admit(id, 3e9, []Pair{{Src: a, Dst: b}})
			if err != nil && !errors.Is(err, errHeadroom) {
				t.Errorf("tenant %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	if got := l.Tenants(); got != 3 {
		t.Fatalf("%d tenants admitted, want 3", got)
	}
	for lid := range cl.Graph.Links {
		c := l.CommittedBps(topo.LinkID(lid))
		if cap := cl.Graph.Links[lid].Capacity; c > cap+1e-6 {
			t.Fatalf("link %d committed %v exceeds capacity %v", lid, c, cap)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerRejectsDuplicates: a held id bounces with errDuplicate and is
// reusable after release.
func TestLedgerRejectsDuplicates(t *testing.T) {
	cl := testClos()
	l := NewLedger(cl.Graph, 2)
	pairs := []Pair{{Src: cl.Hosts[0], Dst: cl.Hosts[1]}}
	if err := l.Admit(7, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	if err := l.Admit(7, 1e9, pairs); !errors.Is(err, errDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if !l.Release(7) {
		t.Fatal("release failed")
	}
	if l.Release(7) {
		t.Fatal("double release succeeded")
	}
	if err := l.Admit(7, 1e9, pairs); err != nil {
		t.Fatalf("id not reusable after release: %v", err)
	}
}

func TestChainPairs(t *testing.T) {
	hosts := []topo.NodeID{3, 7, 9}
	pairs := chainPairs(hosts)
	want := []Pair{{Src: 3, Dst: 7}, {Src: 7, Dst: 9}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
	if chainPairs(hosts[:1]) != nil {
		t.Fatal("single host should yield no pairs")
	}
}

// TestLedgerWhatIfAllocatesNothing: Fits decides in the ledger's scratch, so
// on a warm ledger a placement that fits allocates nothing, and a placement
// refused for headroom — by Fits or by Admit — allocates only its error,
// with the same hot link named as before (the first over budget by id).
func TestLedgerWhatIfAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	g, servers := testbedGraph()
	l := NewLedger(g, 0)
	pairs := []Pair{{Src: servers[0], Dst: servers[4]}, {Src: servers[1], Dst: servers[5]}}
	if err := l.Fits(1e9, pairs); err != nil { // warms the path memo
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = l.Fits(1e9, pairs) }); a != 0 {
		t.Errorf("Fits of a placement that fits allocates %v times, want 0", a)
	}
	links, _, err := l.Evaluate(1e12, pairs)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("placement: link %d over budget: %v", links[0], errHeadroom)
	if err := l.Fits(1e12, pairs); !errors.Is(err, errHeadroom) || err.Error() != want {
		t.Fatalf("Fits over budget = %v, want %q", err, want)
	}
	bare := testing.AllocsPerRun(100, func() { _ = fmt.Errorf("placement: link %d over budget: %w", links[0], errHeadroom) })
	if a := testing.AllocsPerRun(100, func() { _ = l.Fits(1e12, pairs) }); a > bare {
		t.Errorf("Fits refused for headroom allocates %v times, its error alone %v", a, bare)
	}
	bare = testing.AllocsPerRun(100, func() {
		_ = fmt.Errorf("placement: tenant %d link %d over budget: %w", int32(1), links[0], errHeadroom)
	})
	if a := testing.AllocsPerRun(100, func() { _ = l.Admit(1, 1e12, pairs) }); a > bare {
		t.Errorf("Admit refused for headroom allocates %v times, its error alone %v", a, bare)
	}
	if err := l.Verify(); err != nil || l.MaxSubscription() != 0 {
		t.Fatalf("the refusals left a trace: %v, max subscription %v", err, l.MaxSubscription())
	}
}
