package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// The evaluation matrix under this package's tests. A cell is one run —
// (experiment, Options) — and a batch is the cells one Runner made together:
// an experiment set under one Options value at one Runner.Jobs. Every test
// that runs a registry experiment asks batch for its cells, and a batch is
// made once per test process however many tests ask: claims, the golden
// file, -jobs determinism, instrumentation neutrality, the audit gate and
// worker-count identity are assertions over shared result sets. The tests
// are parallel, so the Jobs: 1 batches of one overlap those of another.
// Reports are shared: read them, never write them.

type batchKey struct {
	ids  string
	opts Options
	jobs int
}

type batchRun = func() (map[string]*Report, error)

var matrix sync.Map // batchKey → batchRun, a sync.OnceValues

// batch returns, by experiment id, the reports of ids run under o by
// Runner{Jobs: jobs}. It fails the test on a run that panicked or produced
// a report that is empty or carries another id.
func batch(t *testing.T, ids []string, o Options, jobs int) map[string]*Report {
	t.Helper()
	run, _ := matrix.LoadOrStore(batchKey{strings.Join(ids, ","), o, jobs}, sync.OnceValues(func() (map[string]*Report, error) {
		cells, err := ExpandIDs(ids, o, 1)
		if err != nil {
			return nil, err
		}
		reports := map[string]*Report{}
		for _, res := range (&Runner{Jobs: jobs}).Run(cells) {
			switch id := res.Job.Entry.ID; {
			case res.Err != nil:
				return nil, res.Err
			case res.Report.ID != id:
				return nil, fmt.Errorf("%s: report carries id %q", id, res.Report.ID)
			case len(res.Report.Lines) == 0:
				return nil, fmt.Errorf("%s: empty report", id)
			default:
				reports[id] = res.Report
			}
		}
		return reports, nil
	}))
	reports, err := run.(batchRun)()
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// plainAll is the whole registry at the golden file's options on every
// core — the one plain pass under the claims, the golden comparison and
// both instrumentation-neutrality tests; auditedAll is its audited twin.
func plainAll(t *testing.T) map[string]*Report {
	return batch(t, AllIDs(), Options{Quick: true, Seed: 1}, 0)
}

func auditedAll(t *testing.T) map[string]*Report {
	return batch(t, AllIDs(), Options{Quick: true, Seed: 1, Audit: true}, 0)
}

// claimsHold fails t for every registry claim that is false of r.
func claimsHold(t *testing.T, mode string, r *Report) {
	t.Helper()
	_, failed := CheckClaims([]*Report{r})
	for _, err := range failed {
		t.Errorf("%s: %v", mode, err)
	}
}

// TestClaims walks the registry: every entry's claims must hold in the
// plain batch and in every instrumented seed-1 cell another test makes
// anyway — audited, with telemetry, with 4 workers on the pod shards.
func TestClaims(t *testing.T) {
	t.Parallel()
	modes := []struct {
		name    string
		reports map[string]*Report
	}{
		{"plain", plainAll(t)},
		{"audited", auditedAll(t)},
		{"telemetry", batch(t, telemetryIDs, Options{Quick: true, Seed: 1, Telemetry: true}, 1)},
		{"4 workers", batch(t, shardIdentityIDs, shardIdentityOptions(1, 4), 0)},
	}
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			for _, m := range modes {
				if r := m.reports[e.ID]; r != nil {
					claimsHold(t, m.name, r)
				}
			}
		})
	}
}

// The per-figure names of the tests TestClaims replaced, kept because the
// tier-1 floor lists tests by name: each is its entry's row of TestClaims
// over the plain batch.
func shapeHolds(t *testing.T, ids ...string) {
	t.Parallel()
	for _, id := range ids {
		claimsHold(t, "plain", plainAll(t)[id])
	}
}

func TestFig1Shape(t *testing.T)         { shapeHolds(t, "fig1") }
func TestFig2Shape(t *testing.T)         { shapeHolds(t, "fig2") }
func TestFig3Shape(t *testing.T)         { shapeHolds(t, "fig3") }
func TestFig4Shape(t *testing.T)         { shapeHolds(t, "fig4") }
func TestFig5Shape(t *testing.T)         { shapeHolds(t, "fig5") }
func TestFig11Shape(t *testing.T)        { shapeHolds(t, "fig11") }
func TestFig12Shape(t *testing.T)        { shapeHolds(t, "fig12") }
func TestFig13Shape(t *testing.T)        { shapeHolds(t, "fig13") }
func TestFig14Shape(t *testing.T)        { shapeHolds(t, "fig14") }
func TestFig15Shape(t *testing.T)        { shapeHolds(t, "fig15") }
func TestFig16Shape(t *testing.T)        { shapeHolds(t, "fig16") }
func TestFig18Shape(t *testing.T)        { shapeHolds(t, "fig18") }
func TestFig19Shape(t *testing.T)        { shapeHolds(t, "fig19") }
func TestFig20Shape(t *testing.T)        { shapeHolds(t, "fig20") }
func TestTablesShape(t *testing.T)       { shapeHolds(t, "tab3", "tab4") }
func TestAblationShape(t *testing.T)     { shapeHolds(t, "abl") }
func TestFaultFlapShape(t *testing.T)    { shapeHolds(t, "flap") }
func TestFaultGrayShape(t *testing.T)    { shapeHolds(t, "gray") }
func TestFaultRestartShape(t *testing.T) { shapeHolds(t, "restart") }
func TestFaultChurnShape(t *testing.T)   { shapeHolds(t, "churn") }

// TestGoldenMetrics holds the plain batch to the committed golden file, so
// tier-1 itself catches metric drift, not only `make check`.
func TestGoldenMetrics(t *testing.T) {
	t.Parallel()
	g, err := LoadGolden("../../golden_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []*Report
	for _, r := range batch(t, AllIDs(), g.Options, 0) {
		reports = append(reports, r)
	}
	for _, d := range g.Compare(reports) {
		t.Error(d)
	}
}

// TestClaimSabotage: the evaluator must name a claim whose operator was
// flipped, and must fail — not pass — a claim whose operand the report
// lacks, holds as NaN, or whose operator it does not know.
func TestClaimSabotage(t *testing.T) {
	t.Parallel()
	flipped := Find("fig4").Claims[0]
	flipped.Op = ">="
	if err := flipped.check(plainAll(t)["fig4"].Metrics()); err == nil || !strings.Contains(err.Error(), flipped.Name) {
		t.Errorf("flipped claim %s: got %v, want an error naming it", flipped.Name, err)
	}

	lacking := newReport("fig4", "a report without pwc.tail_us.10")
	lacking.Metric("ufab.tail_us.10", 140)
	if held, failed := CheckClaims([]*Report{lacking}); held != 0 || len(failed) != 1 ||
		!strings.Contains(failed[0].Error(), "fig4: claim fig4.ufab-tail-below-pwc: no metric") {
		t.Errorf("missing operand: %d held, failed %v", held, failed)
	}
	lacking.Metric("pwc.tail_us.10", math.NaN())
	if held, failed := CheckClaims([]*Report{lacking}); held != 0 || len(failed) != 1 {
		t.Errorf("NaN operand: %d held, failed %v", held, failed)
	}
	typo := Claim{"x.typo", "1", "=<", 1, "2"}
	if err := typo.check(nil); err == nil {
		t.Error("unknown operator passed")
	}
	if _, failed := CheckClaims([]*Report{newReport("nope", "unregistered")}); len(failed) != 1 {
		t.Errorf("unregistered report: failed %v", failed)
	}
}

// TestClaimsDocumented keeps EXPERIMENTS.md and the registry from drifting
// apart: the document cites every claim by name.
func TestClaimsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All {
		for _, c := range e.Claims {
			if !strings.Contains(string(doc), "`"+c.Name+"`") {
				t.Errorf("EXPERIMENTS.md does not cite claim `%s`", c.Name)
			}
		}
	}
}
