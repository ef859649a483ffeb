package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// benchmarkJSON renders BENCHMARK.json from the metric tables.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: benchmarkRunSeconds,
	}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestBenchmarkJSONInStep holds BENCHMARK.json to the tables the harness
// reports from: a metric in one and not the other would be refused by the
// benchmark driver.
func TestBenchmarkJSONInStep(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of step with metrics.go; run `go test -run TestBenchmarkJSONInStep -update`", path)
	}
}

// TestMetricTablesFitTheContract checks the limits the benchmark driver
// enforces before a single run.
func TestMetricTablesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	claim := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadNames {
		claim(w)
		if why := workloadWhy[w]; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w, len(why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		claim(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range perLayer {
		claim(m.Name)
	}
	for _, tbl := range [][]metricDef{endToEnd, perLayer, layerOnly} {
		for _, m := range tbl {
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	if benchmarkRunSeconds < 1 || benchmarkRunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", benchmarkRunSeconds)
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Error("BENCHMARK.json exceeds 64 KiB")
	}
}
