package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Golden is the committed regression baseline for the whole evaluation:
// every experiment's headline metrics at a pinned (Quick, Seed)
// configuration, plus comparison tolerances. `ufabsim check` replays the
// evaluation and fails on drift, so CI guards the experiments' numbers,
// not just the unit tests.
type Golden struct {
	// Options pins the configuration the metrics were recorded at;
	// check replays with exactly these options.
	Options Options `json:"options"`
	// DefaultTolerance is the relative tolerance applied to every
	// metric without an explicit override. A metric passes when
	// |got-want| <= tol * max(|want|, 1); the max(...,1) floor makes
	// the tolerance absolute for near-zero metrics.
	DefaultTolerance float64 `json:"default_tolerance"`
	// Tolerances overrides the tolerance per "<experiment>/<metric>".
	Tolerances map[string]float64 `json:"tolerances,omitempty"`
	// Experiments maps experiment id -> metric name -> expected value.
	Experiments map[string]map[string]float64 `json:"experiments"`
}

// Drift is one metric that moved outside its tolerance, or a structural
// mismatch (experiment or metric missing/unexpected).
type Drift struct {
	Experiment string
	Metric     string
	Want, Got  float64
	Tol        float64
	Structural string // non-empty for missing/unexpected entries
}

func (d Drift) String() string {
	if d.Structural != "" {
		return fmt.Sprintf("%s: %s", d.Experiment, d.Structural)
	}
	return fmt.Sprintf("%s/%s: got %.6g, want %.6g (tol %.2g)",
		d.Experiment, d.Metric, d.Got, d.Want, d.Tol)
}

// BuildGolden records the metrics of the given reports as a new baseline.
// NaN/Inf metrics are skipped (JSON cannot carry them and they encode
// "did not happen" sentinels better checked by the entry's claims).
func BuildGolden(opts Options, reports []*Report, defaultTol float64) *Golden {
	g := &Golden{
		Options:          opts,
		DefaultTolerance: defaultTol,
		Experiments:      map[string]map[string]float64{},
	}
	for _, r := range reports {
		m := map[string]float64{}
		for k, v := range r.Metrics() {
			if finite(v) {
				m[k] = v
			}
		}
		g.Experiments[r.ID] = m
	}
	return g
}

// tolerance returns the comparison tolerance for an experiment's metric.
func (g *Golden) tolerance(exp, metric string) float64 {
	if t, ok := g.Tolerances[exp+"/"+metric]; ok {
		return t
	}
	return g.DefaultTolerance
}

// Compare checks the reports against the baseline and returns every
// drift, sorted by experiment then metric. An empty slice means the
// evaluation reproduced the committed numbers.
func (g *Golden) Compare(reports []*Report) []Drift {
	var drifts []Drift
	byID := map[string]*Report{}
	for _, r := range reports {
		byID[r.ID] = r
	}
	for id, want := range g.Experiments {
		r, ok := byID[id]
		if !ok {
			drifts = append(drifts, Drift{Experiment: id,
				Structural: "experiment in golden file but not run"})
			continue
		}
		got := r.Metrics()
		for metric, w := range want {
			gotV, ok := got[metric]
			if !ok {
				drifts = append(drifts, Drift{Experiment: id, Metric: metric,
					Structural: fmt.Sprintf("metric %s missing from report", metric)})
				continue
			}
			tol := g.tolerance(id, metric)
			// A recorded metric that turned NaN or Inf is drift: every
			// comparison with NaN is false, so it must be asked first.
			if !finite(gotV) || math.Abs(gotV-w) > tol*math.Max(math.Abs(w), 1) {
				drifts = append(drifts, Drift{Experiment: id, Metric: metric,
					Want: w, Got: gotV, Tol: tol})
			}
		}
		// New metrics are drift too: they mean the golden file is stale.
		for metric, v := range got {
			if _, ok := want[metric]; !ok && finite(v) {
				drifts = append(drifts, Drift{Experiment: id, Metric: metric,
					Structural: fmt.Sprintf("metric %s not in golden file (run check -update)", metric)})
			}
		}
	}
	for _, r := range reports {
		if _, ok := g.Experiments[r.ID]; !ok {
			drifts = append(drifts, Drift{Experiment: r.ID,
				Structural: "experiment not in golden file (run check -update)"})
		}
	}
	sort.Slice(drifts, func(i, j int) bool {
		if drifts[i].Experiment != drifts[j].Experiment {
			return drifts[i].Experiment < drifts[j].Experiment
		}
		return drifts[i].Metric < drifts[j].Metric
	})
	return drifts
}

// LoadGolden reads a baseline from path.
func LoadGolden(path string) (*Golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &Golden{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if g.DefaultTolerance <= 0 {
		return nil, fmt.Errorf("%s: default_tolerance must be positive", path)
	}
	return g, nil
}

// Save writes the baseline to path with stable key order (encoding/json
// sorts map keys), so regeneration produces reviewable diffs.
func (g *Golden) Save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
