package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"tab3", "tab4", "abl", "flap", "gray", "restart", "churn", "chaoslab",
		"placecmp", "placechurn", "placesweep", "fuzzlab", "reconcile",
		"shardsim"}
	if len(All) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(All), len(want))
	}
	for _, id := range want {
		if Find(id) == nil {
			t.Errorf("missing %s", id)
		}
	}
	if Find("nope") != nil {
		t.Error("Find invented an experiment")
	}
	// Every entry says what it claims, under a name of its own.
	seen := map[string]bool{}
	for _, e := range All {
		if len(e.Claims) == 0 {
			t.Errorf("%s carries no claim", e.ID)
		}
		for _, c := range e.Claims {
			if !strings.HasPrefix(c.Name, e.ID+".") || seen[c.Name] {
				t.Errorf("%s: claim name %q is not a unique %s.<what-holds>", e.ID, c.Name, e.ID)
			}
			seen[c.Name] = true
		}
	}
}

func TestReportString(t *testing.T) {
	r := newReport("x", "test")
	r.Printf("line %d", 1)
	r.Metric("x.m", 3.5)
	s := r.String()
	if !strings.Contains(s, "line 1") || !strings.Contains(s, "x.m = 3.5") {
		t.Fatalf("String() = %q", s)
	}
	if len(r.MetricNames()) != 1 {
		t.Error("MetricNames wrong")
	}
}

func TestChaosLabScenarioOption(t *testing.T) {
	// A user scenario replaces the built-in one (whose nine event kinds are
	// the claim chaoslab.every-kind-applied).
	custom := `{"name":"custom","events":[{"at_ps":1000000,"kind":"node-crash","node":0}]}`
	rep2 := chaosLab(Options{Quick: true, Seed: 1, Scenario: custom})
	if rep2.Metrics()["chaos.events_applied"] != 1 {
		t.Errorf("custom scenario applied %v events, want 1", rep2.Metrics()["chaos.events_applied"])
	}
	// A malformed scenario is reported, not fatal.
	rep3 := chaosLab(Options{Quick: true, Seed: 1, Scenario: "{nope"})
	if rep3.Metrics()["chaos.events_applied"] != 0 {
		t.Error("malformed scenario was executed")
	}
}

func TestDeterminism(t *testing.T) {
	a := Find("fig4").Run(Options{Quick: true, Seed: 9})
	b := Find("fig4").Run(Options{Quick: true, Seed: 9})
	am, bm := a.Metrics(), b.Metrics()
	for k, v := range am {
		if bm[k] != v {
			t.Fatalf("metric %s differs across identical runs: %v vs %v", k, v, bm[k])
		}
	}
}
