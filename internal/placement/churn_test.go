package placement

import (
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

func churnController(policy Policy, oversub float64) (*Controller, *sim.Engine) {
	eng := sim.New()
	cl := topo.NewClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
	return NewController(eng, cl.Graph, nil, Config{
		Policy: policy, Oversubscription: oversub, SlotsPerHost: 4,
	}), eng
}

func TestChurnDrainsClean(t *testing.T) {
	c, eng := churnController(firstFit{}, 1.0)
	st := Churn(c, ChurnConfig{
		Arrivals:         500,
		MeanInterarrival: 20 * sim.Microsecond,
		MeanHold:         200 * sim.Microsecond,
		Seed:             1,
	})
	eng.Run()
	st.Finish(c)
	if st.Submitted != 500 {
		t.Fatalf("submitted %d", st.Submitted)
	}
	if st.Accepted+st.Rejected != st.Submitted {
		t.Fatalf("accepted %d + rejected %d != %d", st.Accepted, st.Rejected, st.Submitted)
	}
	if st.Accepted == 0 {
		t.Fatal("nothing admitted")
	}
	if st.PeakMaxSubscription > 1.0+1e-9 {
		t.Fatalf("peak subscription %.3f exceeds factor 1.0", st.PeakMaxSubscription)
	}
	if err := c.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
	// Every admitted tenant departed (holds are finite): zero residue.
	if n := c.Ledger().Tenants(); n != 0 {
		t.Fatalf("%d tenants still committed after drain", n)
	}
	for i := range c.Ledger().Graph().Links {
		if got := c.Ledger().CommittedBps(topo.LinkID(i)); got != 0 {
			t.Fatalf("link %d residue %v", i, got)
		}
	}
	if st.TimeToAdmit.Len() != st.Accepted {
		t.Fatalf("time-to-admit samples %d != accepted %d", st.TimeToAdmit.Len(), st.Accepted)
	}
	if st.TimeToAdmit.Min() < 10 { // decisionLatency default 10 µs
		t.Fatalf("min time-to-admit %.1f µs < service time", st.TimeToAdmit.Min())
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() (int, float64, float64) {
		c, eng := churnController(subscriptionAware{}, 1.0)
		st := Churn(c, ChurnConfig{
			Arrivals:         300,
			MeanInterarrival: 15 * sim.Microsecond,
			MeanHold:         300 * sim.Microsecond,
			Guarantees:       []float64{5e8, 1e9, 2e9},
			Seed:             7,
		})
		eng.Run()
		st.Finish(c)
		return st.Accepted, st.PeakMaxSubscription, st.TimeToAdmit.Mean()
	}
	a1, p1, m1 := run()
	a2, p2, m2 := run()
	if a1 != a2 || p1 != p2 || m1 != m2 {
		t.Fatalf("churn not deterministic: (%d %.6f %.6f) vs (%d %.6f %.6f)",
			a1, p1, m1, a2, p2, m2)
	}
}

// Higher oversubscription factors admit strictly more load at load.
func TestChurnOversubscriptionMonotonic(t *testing.T) {
	accept := func(factor float64) float64 {
		c, eng := churnController(firstFit{}, factor)
		st := Churn(c, ChurnConfig{
			Arrivals:         400,
			MeanInterarrival: 5 * sim.Microsecond,
			MeanHold:         2 * sim.Millisecond, // heavy load: holds ≫ interarrival
			Guarantees:       []float64{2e9},
			Seed:             3,
		})
		eng.Run()
		return st.AcceptRatio()
	}
	r1 := accept(1.0)
	r2 := accept(2.0)
	if r1 >= 1.0 {
		t.Fatalf("factor 1.0 accepted everything (%.2f) — load too light to test", r1)
	}
	if r2 <= r1 {
		t.Fatalf("factor 2.0 ratio %.3f not above factor 1.0 ratio %.3f", r2, r1)
	}
}
