package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the harness re-execute the test binary as its child: a
// test that drives harness.driver needs real child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	// median 4; deviations 3 1 1 0 5 → sorted 0 1 1 3 5 → 1
	if got := mad([]float64{1, 5, 3, 4, 9}); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestNearestRankPercentile(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7, 9}, 50); got != 7 {
		t.Errorf("p50 of two = %v, want the lower (nearest rank)", got)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 50},        // p90 has 1 beyond
		{100, 90},       // p90 has 10 beyond, p95 has 5
		{200, 95},       // p95 has 10 beyond, p99 has 2
		{1000, 99},      // p99 has 10 beyond, p99.9 has 1
		{3500, 99},      // p99.9 has 3 beyond
		{10000, 99.9},   // p99.9 has 10 beyond, p99.99 has 1
		{100000, 99.99}, // p99.99 has 10 beyond
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	// root 0..100 { a 10..40 { b 15..25 }, a 50..70 }, lone 200..230
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 15, EndNs: 25, Parent: 1},
		{Name: "a", StartNs: 50, EndNs: 70, Parent: 0},
		{Name: "lone", StartNs: 200, EndNs: 230, Parent: -1},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]selfTime{
		"root": {"root", 1, 100, 50}, // minus both a's, not b
		"a":    {"a", 2, 50, 40},     // minus b
		"b":    {"b", 1, 10, 10},
		"lone": {"lone", 1, 30, 30},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("selfTimes[%s] = %+v, want %+v", name, got[name], w)
		}
	}
	if first := selfTimes(spans)[0].Name; first != "root" {
		t.Errorf("rows are sorted by self time; first is %s, want root", first)
	}
}

func TestTracerNestsAndNilIsFree(t *testing.T) {
	var off *tracer
	off.end(off.begin("anything")) // must not panic

	tr := newTracer("rep-1")
	outer := tr.begin("outer")
	inner := tr.beginArg("inner", "42")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].Arg != "42" || tr.spans[1].Rep != "rep-1" {
		t.Errorf("inner span lost its id or repetition: %+v", tr.spans[1])
	}
	if tr.spans[0].EndNs < tr.spans[1].EndNs || tr.spans[1].StartNs < tr.spans[0].StartNs {
		t.Errorf("child interval not inside parent: %+v", tr.spans)
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, [][]span{tr.spans}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != float64(0) || doc.TraceEvents[1].Args["arg"] != "42" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

func rec(d digest, exact map[string]float64) record {
	return record{repResult: repResult{Digest: d, Exact: exact, Attempted: 1}}
}

func TestDigestChecks(t *testing.T) {
	d := digest{Events: 10, DeliveredBytes: 20, Completed: 3, SlowdownP99Bits: math.Float64bits(1.5)}
	exact := map[string]float64{"sim.events": 10}

	same := &results{workload: "w", untraced: []record{rec(d, exact), rec(d, exact)}, reference: []record{rec(d, exact)}}
	same.check(smokeScale)
	if len(same.failures()) != 0 {
		t.Errorf("identical repetitions failed: %v", same.failures())
	}

	// One ulp of the simulated p99 is a different simulation.
	d2 := d
	d2.SlowdownP99Bits++
	drift := &results{workload: "w", untraced: []record{rec(d, exact), rec(d2, exact)}}
	drift.check(smokeScale)
	if len(drift.failures()) != 1 || !strings.Contains(drift.failures()[0], "digest") {
		t.Errorf("digest drift not reported: %v", drift.failures())
	}

	moved := &results{workload: "w", untraced: []record{rec(d, exact), rec(d, map[string]float64{"sim.events": 11})}}
	moved.check(smokeScale)
	if len(moved.failures()) != 1 || !strings.Contains(moved.failures()[0], "sim.events 10 vs 11") {
		t.Errorf("exact metric drift not named: %v", moved.failures())
	}

	ref := rec(d2, exact)
	ref.Workload = wlFabricBacklog
	sharded := &results{workload: wlFabricSharded, untraced: []record{rec(d, exact)}, reference: []record{ref}}
	sharded.check(smokeScale)
	if len(sharded.failures()) != 1 || !strings.Contains(sharded.failures()[0], wlFabricBacklog) {
		t.Errorf("sharded/backlog mismatch not reported: %v", sharded.failures())
	}
	if _, failed := sharded.counts(); failed != 1 {
		t.Errorf("a failed cross-repetition check must count as a failed operation, got %d", failed)
	}

	empty := &results{workload: "w"}
	empty.check(smokeScale)
	if len(empty.failures()) != 1 {
		t.Errorf("a workload with no repetition must fail: %v", empty.failures())
	}
}

// TestSmokeEveryWorkload passes the smoke scale through every workload in
// this process, traced, so that `go test -C bench ./...` holds the harness
// to the exported signatures it calls and keeps its correctness checks
// live (the root module's `go test ./...` does not reach this module).
// Between them the workloads must produce every "run" and "span" per-layer
// metric the benchmark lists.
func TestSmokeEveryWorkload(t *testing.T) {
	seen := map[string]bool{}
	byName := map[string]repResult{}
	for _, w := range append(append([]string(nil), workloadNames...), wlRPCTelemetry, wlRPCAudit) {
		r := runWorkload(w, smokeScale, 1, newTracer(w), true, time.Now())
		byName[w] = r
		if len(r.Checks) != 0 || r.Failed != 0 {
			t.Errorf("%s: checks failed: %v", w, r.Checks)
		}
		if r.Attempted < 1 || r.JobS <= 0 || r.SetupS <= 0 || r.JobCPUS <= 0 || r.LiveRSSMB <= 0 {
			t.Errorf("%s: an end-to-end metric is zero: %+v", w, r)
		}
		rs := &results{workload: w, untraced: []record{{repResult: r}}, traced: []record{{repResult: r}}, reference: []record{{repResult: r}}}
		for k := range rs.layerValues() {
			seen[k] = true
		}
	}
	if a, b := byName[wlFabricBacklog], byName[wlFabricSharded]; a.Digest != b.Digest || diffExact(a.Exact, b.Exact) != "" {
		t.Errorf("sharded run differs from sequential: %+v vs %+v (%s)", a.Digest, b.Digest, diffExact(a.Exact, b.Exact))
	}
	// Sampling ticks are events, so only the event count may differ.
	a, b := byName[wlRPC].Digest, byName[wlRPCTelemetry].Digest
	if a.Events = b.Events; a != b {
		t.Errorf("attaching telemetry changed the simulation: %+v vs %+v", a, b)
	}
	if byName[wlRPCAudited].Digest.Drops == 0 {
		t.Error("the audited workload's link flap dropped nothing: the fault was not injected")
	}
	if r := byName[wlCtlChurn]; r.Attempted < smokeScale.Decisions || r.Exact["ctlplane.admits"] == 0 {
		t.Errorf("ctl_churn: %d requests, %v admits", r.Attempted, r.Exact["ctlplane.admits"])
	}

	// The smoke loop is too short for tail percentiles: pooled admit
	// latencies report p99 and p99.9 only with ten samples beyond them.
	if seen["admit_p99_us"] || seen["ctlplane.http.admit_p999_us"] {
		t.Error("a tail percentile was reported from a sample too small to hold it")
	}
	long := make([]float64, 20000)
	for i := range long {
		long[i] = float64(i + 1)
	}
	pooled := (&results{untraced: []record{{repResult: repResult{AdmitUs: long[:10000]}}, {repResult: repResult{AdmitUs: long[10000:]}}}}).layerValues()
	if pooled["admit_p50_us"] != 10000 || pooled["admit_p99_us"] != 19800 || pooled["ctlplane.http.admit_p999_us"] != 19980 {
		t.Errorf("pooled admit percentiles = %v / %v / %v", pooled["admit_p50_us"], pooled["admit_p99_us"], pooled["ctlplane.http.admit_p999_us"])
	}
	seen["admit_p99_us"], seen["ctlplane.http.admit_p999_us"] = true, true

	micro, checks := runLayers(smokeScale, 1, time.Millisecond)
	if len(checks) != 0 {
		t.Errorf("layer drivers failed checks: %v", checks)
	}
	for k, r := range micro {
		seen[k] = true
		if math.IsNaN(r.Value) || r.N < 1 {
			t.Errorf("layer driver %s: reading %+v", k, r)
		}
	}
	for _, m := range perLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer metric %s is listed but nothing produces it", m.Name)
		}
	}
	for k := range seen {
		if unitOf(k) == "" {
			t.Errorf("metric %s is produced but in no table", k)
		}
	}
}

// TestDriverContract runs the benchmark the way its driver does, through
// real child processes at smoke scale, and checks the result line.
func TestDriverContract(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	for _, c := range []struct {
		workload string
		traced   bool
		want     []metricDef
	}{
		{wlCtlChurn, false, endToEnd},
		{wlFabricSharded, true, perLayer},
	} {
		var out, log bytes.Buffer
		h := &harness{exe: exe, sc: smokeScale, seed: 3, log: &log, out: &out}
		if code := h.driver(c.workload, 1, c.traced, ""); code != 0 {
			t.Fatalf("%s: exit %d\n%s", c.workload, code, log.String())
		}
		var got line
		if err := json.Unmarshal(out.Bytes(), &got); err != nil {
			t.Fatalf("%s: result line %q: %v", c.workload, out.String(), err)
		}
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
			t.Errorf("%s: %+v", c.workload, got)
		}
		if len(got.Metrics) != len(c.want) {
			t.Errorf("%s: %d metrics, want %d", c.workload, len(got.Metrics), len(c.want))
		}
		for _, m := range c.want {
			v, ok := got.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s", c.workload, m.Name, v, ok, m.Unit)
			}
			if !c.traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", c.workload, m.Name, v.Value)
			}
		}
		if c.workload == wlFabricSharded && got.Metrics["sim.sharded.speedup_x"].Value <= 0 {
			t.Errorf("sharded run reported no speed-up against its fabric1k_backlog reference")
		}
	}
}

// BenchmarkWorkload runs one full-scale repetition of a workload in this
// process, which is how its CPU profile is taken (README, "Where the CPU
// goes"):
//
//	go test -C bench -run '^$' -bench 'Workload/clos128_rpc$' -benchtime 3x -cpuprofile cpu.prof -o bench.test
func BenchmarkWorkload(b *testing.B) {
	for _, w := range workloadNames {
		b.Run(w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := runWorkload(w, fullScale, 1, nil, false, time.Now()); len(r.Checks) != 0 {
					b.Fatalf("%s: %v", w, r.Checks)
				}
			}
		})
	}
}

// TestPinnedOutcomes holds pinned.json to its shape (every workload on
// seeds 1..pinnedSeeds, fabric1k_sharded equal to fabric1k_backlog) and the
// check built on it: worse by more than 0.1 % fails, fewer events do not.
func TestPinnedOutcomes(t *testing.T) {
	for seed := int64(1); seed <= pinnedSeeds; seed++ {
		for _, w := range workloadNames {
			if _, ok := pinnedDigest(w, fullScale, seed); !ok {
				t.Fatalf("pinned.json has no outcome for %s on seed %d; run `go run -C bench . -pin`", w, seed)
			}
		}
		a, _ := pinnedDigest(wlFabricBacklog, fullScale, seed)
		b, _ := pinnedDigest(wlFabricSharded, fullScale, seed)
		if a != b {
			t.Errorf("seed %d: pinned fabric1k_sharded %+v differs from fabric1k_backlog %+v", seed, b, a)
		}
	}
	if _, ok := pinnedDigest(wlRPC, smokeScale, 1); ok {
		t.Error("the smoke scale must not be held to the full scale's outcomes")
	}
	if _, ok := pinnedDigest(wlRPC, fullScale, pinnedSeeds+1); ok {
		t.Errorf("seed %d is pinned; pinnedSeeds is out of step with pinned.json", pinnedSeeds+1)
	}

	pin, _ := pinnedDigest(wlRPCAudited, fullScale, 7)
	run := func(d digest) []string {
		r := rec(d, nil)
		r.Seed = 7
		rs := &results{workload: wlRPCAudited, untraced: []record{r}}
		rs.check(fullScale)
		return rs.failures()
	}
	if f := run(pin); len(f) != 0 {
		t.Errorf("the pinned outcome itself failed: %v", f)
	}
	fewerEvents := pin
	fewerEvents.Events /= 2
	fewerEvents.DeliveredBytes += 1000
	if f := run(fewerEvents); len(f) != 0 {
		t.Errorf("the same outcome from fewer events must pass: %v", f)
	}
	within := pin
	within.DeliveredBytes -= pin.DeliveredBytes / 2000 // 0.05 %
	if f := run(within); len(f) != 0 {
		t.Errorf("0.05 %% fewer bytes is inside the 0.1 %% tolerance: %v", f)
	}
	for what, worse := range map[string]func(*digest){
		"delivered bytes": func(d *digest) { d.DeliveredBytes -= d.DeliveredBytes / 100 },
		"completed":       func(d *digest) { d.Completed -= d.Completed / 100 },
		"drops":           func(d *digest) { d.Drops += d.Drops/100 + 1 },
		"slowdown p99": func(d *digest) {
			d.SlowdownP99Bits = math.Float64bits(math.Float64frombits(d.SlowdownP99Bits) * 1.01)
		},
	} {
		d := pin
		worse(&d)
		if f := run(d); len(f) != 1 || !strings.Contains(f[0], what) || !strings.Contains(f[0], "pinned.json") {
			t.Errorf("1 %% worse %s: failures %v", what, f)
		}
	}
}
