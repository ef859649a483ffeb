package fuzz

import (
	"bytes"
	"path/filepath"
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/vfabric"
)

// sabotagedCase is a deliberately fat failing case: a 6-host star with
// two contending 4G tenants (the audit tests' proven sabotage shape),
// two unrelated tenants and a churn process — plenty for the shrinker to
// cut — whose executor pins the first flow's sender token to 1 mid-run,
// collapsing its WFQ share far below the declared guarantee. No chaos is
// injected, so no excuse window can swallow the finding.
func sabotagedCase() (*Case, *Executor) {
	c := &Case{
		Name:      "sabotage-star",
		Seed:      7,
		Topology:  Topology{Kind: "star", Hosts: 6},
		HorizonPS: 24 * sim.Millisecond,
		Tenants: []Tenant{
			{VF: 1, GuaranteeBps: 4e9, WeightClass: 2, Pairs: []chaos.PairSpec{{Src: 1, Dst: 2}}},
			{VF: 2, GuaranteeBps: 4e9, WeightClass: 2, Pairs: []chaos.PairSpec{{Src: 3, Dst: 2}}},
			{VF: 3, GuaranteeBps: 2e9, WeightClass: 1, Pairs: []chaos.PairSpec{{Src: 4, Dst: 5}}},
			{VF: 4, GuaranteeBps: 2e9, WeightClass: 1, Pairs: []chaos.PairSpec{{Src: 5, Dst: 6}}},
		},
		Churn: &placement.ChurnConfig{
			Arrivals:         6,
			MeanInterarrival: 2 * sim.Millisecond,
			MeanHold:         4 * sim.Millisecond,
			Guarantees:       []float64{5e8},
			BacklogBytes:     256 << 10,
			FirstID:          100,
		},
	}
	x := &Executor{
		Replay: true,
		Sabotage: func(eng *sim.Engine, f *vfabric.Fabric) {
			eng.At(6*sim.Millisecond, func() {
				if len(f.Flows) > 0 {
					f.Flows[0].Pair.SetPhi(1)
				}
			})
		},
	}
	return c, x
}

// TestSabotageTriggersOracle: the fuzz oracle catches a deliberately
// broken invariant as an unexcused finding.
func TestSabotageTriggersOracle(t *testing.T) {
	c, x := sabotagedCase()
	r, err := x.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictFinding {
		t.Fatalf("verdict = %s (kinds %v, mismatch %q), want finding\n%s",
			r.Verdict, r.Kinds, r.Mismatch, r.FindingsJSONL)
	}
	found := false
	for _, k := range r.Kinds {
		if k == "min_bw" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexcused kinds = %v, want min_bw", r.Kinds)
	}
}

// TestShrinkMinimizes: shrinking the sabotaged case strips the parts the
// failure does not need (chaos, churn, extra tenants) and shortens the
// horizon, while the minimized case still fails with the same kind.
func TestShrinkMinimizes(t *testing.T) {
	c, x := sabotagedCase()
	sh := &Shrinker{X: x}
	min, r, st := sh.Shrink(c)
	if !r.Verdict.Failed() {
		t.Fatalf("shrunk case no longer fails: %s", r.Verdict)
	}
	hasMinBW := false
	for _, k := range r.Kinds {
		if k == "min_bw" {
			hasMinBW = true
		}
	}
	if !hasMinBW {
		t.Fatalf("shrunk case lost the min_bw kind: %v", r.Kinds)
	}
	if st.Reductions == 0 {
		t.Fatalf("shrink made no reductions on a deliberately fat case (runs %d)", st.Runs)
	}
	if min.Chaos != nil {
		t.Errorf("shrunk case kept chaos: %+v", min.Chaos.Events)
	}
	if min.Churn != nil {
		t.Errorf("shrunk case kept churn: %+v", min.Churn)
	}
	// The sabotage targets Flows[0] (vf 1) and its WFQ share only
	// collapses under contention, so exactly the sabotaged tenant and its
	// contender (vf 2, same destination) must survive.
	if len(min.Tenants) != 2 {
		t.Errorf("shrunk case kept %d tenants, want the sabotaged pair + contender", len(min.Tenants))
	}
	if min.HorizonPS >= c.HorizonPS {
		t.Errorf("horizon did not shrink: %v >= %v", min.HorizonPS, c.HorizonPS)
	}
}

// TestShrinkIdempotent: shrinking a shrunk case changes nothing — every
// pass re-tries the same reductions and they fail the same way.
func TestShrinkIdempotent(t *testing.T) {
	c, x := sabotagedCase()
	sh := &Shrinker{X: x}
	min1, _, _ := sh.Shrink(c)
	min2, _, st := sh.Shrink(min1)
	a, err := min1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := min2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("second shrink changed the case (%d further reductions):\n%s\nvs\n%s",
			st.Reductions, a, b)
	}
}

// TestShrunkReproducerRoundTrips: the minimized case written to disk and
// loaded back still reproduces the failure — the property that makes a
// committed reproducer trustworthy.
func TestShrunkReproducerRoundTrips(t *testing.T) {
	c, x := sabotagedCase()
	sh := &Shrinker{X: x}
	min, _, _ := sh.Shrink(c)
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := min.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := x.Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictFinding {
		t.Fatalf("reloaded reproducer verdict = %s, want finding", r.Verdict)
	}
}

// TestReplayCatchesWorkerDependence proves the differential half of the
// replay oracle bites: a run that behaves differently only once worker
// goroutines execute the shards (the sabotage pins a sender token on the
// replay's engine, never on the inline one) comes back as a mismatch that
// names the diverging line, and the shrinker minimizes it like any other
// failure.
func TestReplayCatchesWorkerDependence(t *testing.T) {
	c := &Case{
		Name:      "sabotage-workers",
		Seed:      7,
		Topology:  Topology{Kind: "clos"},
		HorizonPS: 12 * sim.Millisecond,
		Tenants: []Tenant{
			{VF: 1, GuaranteeBps: 4e9, WeightClass: 2, Pairs: []chaos.PairSpec{{Src: 0, Dst: 4}}},
			{VF: 2, GuaranteeBps: 4e9, WeightClass: 2, Pairs: []chaos.PairSpec{{Src: 1, Dst: 4}}},
			{VF: 3, GuaranteeBps: 2e9, WeightClass: 1, Pairs: []chaos.PairSpec{{Src: 2, Dst: 6}}},
		},
	}
	g, err := c.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for i := range c.Tenants {
		p := &c.Tenants[i].Pairs[0]
		p.Src, p.Dst = hosts[p.Src], hosts[p.Dst]
	}
	x := &Executor{
		Replay: true,
		Sabotage: func(eng *sim.Engine, f *vfabric.Fabric) {
			if eng.Workers() == 0 {
				return
			}
			eng.At(6*sim.Millisecond, func() { f.Flows[0].Pair.SetPhi(1) })
		},
	}
	r, err := x.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictMismatch || r.Mismatch == "" {
		t.Fatalf("verdict = %s (mismatch %q), want a mismatch with its diff", r.Verdict, r.Mismatch)
	}
	min, mr, st := (&Shrinker{X: x}).Shrink(c)
	if mr.Verdict != VerdictMismatch || mr.Mismatch == "" {
		t.Fatalf("shrunk case verdict = %s (mismatch %q), want mismatch", mr.Verdict, mr.Mismatch)
	}
	if st.Reductions == 0 || len(min.Tenants) >= len(c.Tenants) {
		t.Errorf("shrink kept %d of %d tenants in %d reductions; vf 3 shares nothing with the sabotaged flow",
			len(min.Tenants), len(c.Tenants), st.Reductions)
	}
}

// TestShrinkCleanCaseNoOp: a passing case comes back unchanged.
func TestShrinkCleanCaseNoOp(t *testing.T) {
	c := Generate(2)
	sh := &Shrinker{X: &Executor{}}
	min, r, st := sh.Shrink(c)
	if r.Verdict.Failed() {
		t.Fatalf("expected seed 2 to pass, got %s", r.Verdict)
	}
	if st.Reductions != 0 || min != c {
		t.Fatalf("shrink of a clean case did work: %d reductions", st.Reductions)
	}
}

// TestScenarioCloneIsDeep: mutating a clone's events and tenant pairs
// never leaks into the original — shrink passes rely on this.
func TestScenarioCloneIsDeep(t *testing.T) {
	sc := chaos.New("orig")
	sc.LinkDown(sim.Millisecond, 3, true)
	sc.ArriveTenant(2*sim.Millisecond, chaos.TenantSpec{
		VF: 9, GuaranteeBps: 1e9, Pairs: []chaos.PairSpec{{Src: 1, Dst: 2}},
	})
	cp := sc.Clone()
	cp.Events[0].At = 99
	cp.Events[1].Tenant.Pairs[0].Src = 42
	if sc.Events[0].At == 99 {
		t.Fatal("clone shares the events slice")
	}
	if sc.Events[1].Tenant.Pairs[0].Src == 42 {
		t.Fatal("clone shares a tenant's pairs slice")
	}
	if (*chaos.Scenario)(nil).Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}
