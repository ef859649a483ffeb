package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// harness runs repetitions. Each one is a fresh child process (the harness
// re-executes itself), so peak RSS is per repetition and no GC state leaks
// from one workload into the next; one child runs at a time.
type harness struct {
	exe   string
	sc    scale
	seed  int64
	log   io.Writer // progress and tables
	out   io.Writer // the benchmark contract's result line
	nReps int       // running count, for repetition ids
}

// record is one repetition plus the host calibration readings around it.
type record struct {
	repResult
	CalibBefore float64
	CalibAfter  float64
}

// rep runs one repetition of a workload in a child process, with the
// calibration kernel run before and after it.
func (h *harness) rep(workload string, traced, layers bool) (record, error) {
	h.nReps++
	id := fmt.Sprintf("%s#%d", workload, h.nReps)
	// -child comes first: the test binary's TestMain looks for it there.
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(h.seed, 10), "-rep", id}
	if traced {
		args = append(args, "-trace", "1")
	}
	if layers {
		args = append(args, "-layers")
	}
	if h.sc.smoke() {
		args = append(args, "-smoke")
	}
	rec := record{CalibBefore: calibrate()}
	cmd := exec.Command(h.exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("repetition %s: %w", id, err)
	}
	if err := json.Unmarshal(lastLine(out), &rec.repResult); err != nil {
		return rec, fmt.Errorf("repetition %s: decoding result: %w", id, err)
	}
	rec.CalibAfter = calibrate()
	return rec, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// results collects the repetitions of one workload in one set.
type results struct {
	workload string
	untraced []record
	traced   []record
	// reference holds fabric1k_backlog repetitions run beside
	// fabric1k_sharded: the digest they must match, and the base of
	// sim.sharded.speedup_x.
	reference []record
	checks    []string
}

func (rs *results) all() []record {
	return append(append([]record(nil), rs.untraced...), rs.traced...)
}

func (rs *results) failf(format string, args ...any) {
	rs.checks = append(rs.checks, fmt.Sprintf(format, args...))
}

// endToEndValues returns one end-to-end metric's value per untraced
// repetition.
func (rs *results) endToEndValues(name string) []float64 {
	vals := make([]float64, len(rs.untraced))
	for i, r := range rs.untraced {
		switch name {
		case "setup_s":
			vals[i] = r.SetupS
		case "job_wall_s":
			vals[i] = r.JobS
		case "job_cpu_s":
			vals[i] = r.JobCPUS
		case "job_alloc_mb":
			vals[i] = r.JobAllocMB
		case "live_rss_mb":
			vals[i] = r.LiveRSSMB
		default:
			panic("bench: unknown end-to-end metric " + name)
		}
	}
	return vals
}

// check runs the cross-repetition correctness checks: every repetition of
// one seed must report the same digest and the same exact metrics,
// fabric1k_sharded must reproduce fabric1k_backlog bit for bit, and on a
// pinned seed the simulated outcome must be no worse than the pinned one.
// Failures are appended to rs.checks, after the repetitions' own.
func (rs *results) check(sc scale) {
	all := rs.all()
	if len(all) == 0 {
		rs.failf("%s: no repetition completed", rs.workload)
		return
	}
	first := all[0]
	for i, r := range all[1:] {
		if r.Digest != first.Digest {
			rs.failf("%s: repetition %d digest %+v differs from repetition 1's %+v", rs.workload, i+2, r.Digest, first.Digest)
		}
		if !reflect.DeepEqual(r.Exact, first.Exact) {
			rs.failf("%s: repetition %d exact metrics differ from repetition 1's: %s", rs.workload, i+2, diffExact(first.Exact, r.Exact))
		}
	}
	for _, ref := range rs.reference {
		if ref.Digest != first.Digest {
			rs.failf("%s digest %+v differs from %s digest %+v", rs.workload, first.Digest, ref.Workload, ref.Digest)
		}
		if !reflect.DeepEqual(ref.Exact, first.Exact) {
			rs.failf("%s exact metrics differ from %s's: %s", rs.workload, ref.Workload, diffExact(ref.Exact, first.Exact))
		}
	}
	if pin, ok := pinnedDigest(rs.workload, sc, first.Seed); ok {
		for _, worse := range first.Digest.worseThan(pin) {
			rs.failf("%s seed %d: simulated outcome worse than pinned.json: %s", rs.workload, first.Seed, worse)
		}
	}
}

// failures returns every failed check in words: the repetitions' own
// first, then the cross-repetition ones.
func (rs *results) failures() []string {
	var out []string
	for _, r := range rs.all() {
		out = append(out, r.Checks...)
	}
	return append(out, rs.checks...)
}

// diffExact names the exact metrics two repetitions disagree on.
func diffExact(a, b map[string]float64) string {
	var out []string
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			out = append(out, fmt.Sprintf("%s %v vs %v", k, va, b[k]))
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s missing vs %v", k, vb))
		}
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}

// counts returns operations attempted and failed over this workload's
// repetitions; a failed cross-repetition check is one failed operation.
func (rs *results) counts() (attempted, failed int) {
	for _, r := range rs.all() {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed + len(rs.checks)
}

// calibration returns the median calibration reading around this
// workload's repetitions and the drift from the first to the last, in %.
func (rs *results) calibration() (medianMs, driftPct float64) {
	var cal []float64
	for _, r := range append(append([]record(nil), rs.reference...), rs.all()...) {
		cal = append(cal, r.CalibBefore, r.CalibAfter)
	}
	if len(cal) == 0 {
		return 0, 0
	}
	return median(cal), calibDriftPct(cal)
}

// calibDriftPct returns how far the calibration readings moved from the
// start of a series to its end, in %. One reading swings ±15 % on a quiet
// host, so "first" and "last" are the medians of the first and last third.
func calibDriftPct(cal []float64) float64 {
	k := max(1, len(cal)/3)
	return relDiff(median(cal[:k]), median(cal[len(cal)-k:])) * 100
}

// layerValues folds the repetitions into the per-layer metrics read off
// the runs themselves: medians of the wall readings, the exact values, the
// traced repetition's self times, tracing overhead and host calibration.
func (rs *results) layerValues() map[string]float64 {
	out := map[string]float64{}
	all := rs.all()
	if len(all) == 0 {
		return out
	}
	for k, v := range all[0].Exact {
		out[k] = v
	}
	wall := map[string][]float64{}
	for _, r := range all {
		for k, v := range r.Wall {
			wall[k] = append(wall[k], v)
		}
	}
	for k, vs := range wall {
		out[k] = median(vs)
	}
	job := func(recs []record) float64 {
		vs := make([]float64, len(recs))
		for i, r := range recs {
			vs[i] = r.JobS
		}
		return median(vs)
	}
	if len(rs.reference) > 0 && len(rs.untraced) > 0 {
		out["sim.sharded.speedup_x"] = job(rs.reference) / job(rs.untraced)
	}
	if len(rs.traced) > 0 && len(rs.untraced) > 0 {
		out["trace_overhead_pct"] = (job(rs.traced)/job(rs.untraced) - 1) * 100
	}
	self := map[string][]float64{}
	for _, r := range rs.traced {
		for _, st := range selfTimes(r.Spans) {
			self[st.Name] = append(self[st.Name], float64(st.SelfNs)/1e6)
		}
	}
	for name, vs := range self {
		out["self_ms."+name] = median(vs)
	}
	var admit []float64
	for _, r := range all {
		admit = append(admit, r.AdmitUs...)
	}
	if len(admit) > 0 {
		// A tail percentile is reported only while at least ten samples
		// lie beyond it; otherwise a handful of outliers would set it.
		asc, top := sorted(admit), highestPercentile(len(admit))
		out["ctlplane.http.admit_samples"] = float64(len(asc))
		out["admit_p50_us"] = percentile(asc, 50)
		if top >= 99 {
			out["admit_p99_us"] = percentile(asc, 99)
		}
		if top >= 99.9 {
			out["ctlplane.http.admit_p999_us"] = percentile(asc, 99.9)
		}
	}
	rss := make([]float64, len(all))
	for i, r := range all {
		rss[i] = r.PeakRSSMB
	}
	out["peak_rss_mb"] = median(rss)
	out["host.calib_ms"], out["host.calib_drift_pct"] = rs.calibration()
	return out
}

// hostUnstableDriftPct is the calibration drift beyond which a set is
// labelled host-unstable (it is still reported).
const hostUnstableDriftPct = 5

// driver runs one workload the way the benchmark contract asks: measure
// for about `seconds`, print one JSON object as the last line of standard
// output, exit 0 when every correctness check passed.
func (h *harness) driver(workload string, seconds int, traced bool, traceOut string) int {
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	fmt.Fprintf(h.log, "host %s\n", mustJSON(describeHost(h.seed)))
	rs := &results{workload: workload}

	var micro map[string]reading
	if traced {
		// A third of the run goes to the per-layer drivers; there are
		// about sixty timed loops.
		var microChecks []string
		micro, microChecks = runLayers(h.sc, h.seed, budget/3/60)
		rs.checks = append(rs.checks, microChecks...)
		fmt.Fprintf(h.log, "layer drivers took %.1fs\n", time.Since(start).Seconds())
	}

	if workload == wlFabricSharded {
		ref, err := h.rep(wlFabricBacklog, false, false)
		if err != nil {
			rs.failf("%v", err)
		} else {
			rs.reference = append(rs.reference, ref)
			rs.checks = append(rs.checks, ref.Checks...)
		}
	}
	// Repetitions run until the next one would overrun the budget; a traced
	// run alternates untraced and traced repetitions and needs one of each.
	var longest time.Duration
	for n := 0; ; n++ {
		minReps := 1
		if traced {
			minReps = 2
		}
		if n >= minReps && time.Since(start)+longest > budget {
			break
		}
		t0 := time.Now()
		asTraced := traced && n%2 == 1
		rec, err := h.rep(workload, asTraced, traced)
		if err != nil {
			rs.failf("%v", err)
			break
		}
		longest = max(longest, time.Since(t0))
		if asTraced {
			rs.traced = append(rs.traced, rec)
		} else {
			rs.untraced = append(rs.untraced, rec)
		}
		fmt.Fprintf(h.log, "rep %d traced=%v setup %.3fs job %.3fs cpu %.3fs live %.1f MiB rss %.0f MiB calib %.2f/%.2f ms\n",
			n+1, asTraced, rec.SetupS, rec.JobS, rec.JobCPUS, rec.LiveRSSMB, rec.PeakRSSMB, rec.CalibBefore, rec.CalibAfter)
	}
	rs.check(h.sc)
	if _, ok := pinnedDigest(workload, h.sc, h.seed); !ok && !h.sc.smoke() {
		fmt.Fprintf(h.log, "seed %d is not pinned (1..%d are): the outcome is checked against this run's repetitions only\n", h.seed, pinnedSeeds)
	}
	if traceOut != "" {
		if err := writeTraceFile(traceOut, rs.traced); err != nil {
			rs.failf("%v", err)
		}
	}
	failures := rs.failures()
	for _, c := range failures {
		fmt.Fprintf(h.log, "CHECK FAILED: %s\n", c)
	}
	if _, drift := rs.calibration(); math.Abs(drift) > hostUnstableDriftPct {
		fmt.Fprintf(h.log, "host-unstable: calibration drifted %+.1f%% over the run\n", drift)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		vals := rs.layerValues()
		for name, r := range micro {
			vals[name] = r.Value
		}
		for _, m := range perLayer {
			metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
		printSelfTimes(h.log, rs, vals)
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{median(rs.endToEndValues(m.Name)), m.Unit}
		}
	}
	if len(rs.untraced) == 0 {
		// Nothing was measured: no result line, non-zero exit.
		return 1
	}
	attempted, failed := rs.counts()
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(failures) == 0, attempted, failed, metrics}
	fmt.Fprintln(h.out, mustJSON(line))
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// writeTraceFile writes the traced repetitions' spans as one Chrome trace.
func writeTraceFile(path string, traced []record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	reps := make([][]span, len(traced))
	for i, r := range traced {
		reps[i] = r.Spans
	}
	if err := writeChromeTrace(f, reps); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// printSelfTimes prints the per-span-name table of the first traced
// repetition, and the tracing overhead out of vals (rs.layerValues()).
func printSelfTimes(w io.Writer, rs *results, vals map[string]float64) {
	if len(rs.traced) == 0 {
		return
	}
	fmt.Fprintf(w, "%s: self time per span name (one traced repetition)\n", rs.workload)
	fmt.Fprintf(w, "  %-24s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, st := range selfTimes(rs.traced[0].Spans) {
		fmt.Fprintf(w, "  %-24s %9d %12.3f %12.3f\n", st.Name, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
	}
	if v, ok := vals["trace_overhead_pct"]; ok {
		fmt.Fprintf(w, "  trace_overhead_pct %+.2f %% (traced vs untraced median job_wall_s)\n", v)
	}
}
