package experiments

import (
	"math"
	"path/filepath"
	"testing"
)

func twoReports() []*Report {
	a := newReport("figA", "a")
	a.Metric("a.x", 10)
	a.Metric("a.y", 0.5)
	b := newReport("figB", "b")
	b.Metric("b.z", -3)
	return []*Report{a, b}
}

func TestGoldenRoundTripAndCompare(t *testing.T) {
	opts := Options{Quick: true, Seed: 1}
	g := BuildGolden(opts, twoReports(), 1e-6)
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Options != opts || loaded.DefaultTolerance != 1e-6 {
		t.Fatalf("roundtrip mangled header: %+v", loaded)
	}
	if drifts := loaded.Compare(twoReports()); len(drifts) != 0 {
		t.Fatalf("identical reports drifted: %v", drifts)
	}
}

func TestGoldenDetectsDrift(t *testing.T) {
	g := BuildGolden(Options{}, twoReports(), 1e-6)
	reports := twoReports()
	reports[0].Metric("a.x", 10.01) // 0.1% off, far beyond 1e-6
	drifts := g.Compare(reports)
	if len(drifts) != 1 || drifts[0].Experiment != "figA" || drifts[0].Metric != "a.x" {
		t.Fatalf("drifts = %v, want exactly figA/a.x", drifts)
	}
	// Within tolerance passes: the max(|want|,1) floor scales it.
	reports[0].Metric("a.x", 10+5e-6)
	if drifts := g.Compare(reports); len(drifts) != 0 {
		t.Fatalf("in-tolerance change flagged: %v", drifts)
	}
}

func TestGoldenPerMetricTolerance(t *testing.T) {
	g := BuildGolden(Options{}, twoReports(), 1e-6)
	g.Tolerances = map[string]float64{"figA/a.x": 0.05}
	reports := twoReports()
	reports[0].Metric("a.x", 10.2) // 2% off: inside the 5% override
	reports[1].Metric("b.z", -3.1) // off with no override: must drift
	drifts := g.Compare(reports)
	if len(drifts) != 1 || drifts[0].Experiment != "figB" {
		t.Fatalf("drifts = %v, want exactly figB/b.z", drifts)
	}
}

func TestGoldenStructuralDrift(t *testing.T) {
	g := BuildGolden(Options{}, twoReports(), 1e-6)

	// Missing metric: a figA report that never recorded a.y.
	reports := twoReports()
	short := newReport("figA", "a")
	short.Metric("a.x", 10)
	reports[0] = short
	if drifts := g.Compare(reports); len(drifts) != 1 || drifts[0].Structural == "" {
		t.Fatalf("missing metric not structural drift: %v", drifts)
	}

	// New metric not in the baseline.
	reports = twoReports()
	reports[1].Metric("b.w", 7)
	if drifts := g.Compare(reports); len(drifts) != 1 || drifts[0].Structural == "" {
		t.Fatalf("new metric not flagged: %v", drifts)
	}

	// Experiment missing from the run.
	if drifts := g.Compare(twoReports()[:1]); len(drifts) != 1 ||
		drifts[0].Experiment != "figB" || drifts[0].Structural == "" {
		t.Fatalf("missing experiment not flagged: %v", drifts)
	}

	// Extra experiment not in the baseline.
	extra := newReport("figC", "new")
	if drifts := g.Compare(append(twoReports(), extra)); len(drifts) != 1 ||
		drifts[0].Experiment != "figC" {
		t.Fatalf("extra experiment not flagged: %v", drifts)
	}
}

func TestGoldenSkipsNonFinite(t *testing.T) {
	r := newReport("figN", "nan")
	r.Metric("n.good", 1)
	r.Metric("n.bad", math.NaN())
	r.Metric("n.worse", math.Inf(1))
	g := BuildGolden(Options{}, []*Report{r}, 1e-6)
	if _, ok := g.Experiments["figN"]["n.bad"]; ok {
		t.Fatal("NaN metric recorded")
	}
	if _, ok := g.Experiments["figN"]["n.worse"]; ok {
		t.Fatal("Inf metric recorded")
	}
	// And Compare must not flag the skipped metrics as "new".
	if drifts := g.Compare([]*Report{r}); len(drifts) != 0 {
		t.Fatalf("non-finite metrics flagged: %v", drifts)
	}
}

// A metric the golden holds that turns NaN or Inf is drift: |NaN − want| >
// tol is false, so the comparison alone would wave it through.
func TestGoldenFlagsNonFiniteDrift(t *testing.T) {
	g := BuildGolden(Options{}, twoReports(), 1e-6)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reports := twoReports()
		reports[0].Metric("a.x", bad)
		if drifts := g.Compare(reports); len(drifts) != 1 || drifts[0].Metric != "a.x" || drifts[0].Structural != "" {
			t.Errorf("a.x = %v: drifts = %v, want exactly figA/a.x", bad, drifts)
		}
	}
}
