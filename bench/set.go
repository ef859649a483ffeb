package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ufab/internal/experiments"
)

// set is one pass over every workload.
type set struct {
	host hostInfo
	by   map[string]*results
	// driftPct is how far the calibration readings moved over the set; it
	// is labelled host-unstable beyond hostUnstableDriftPct.
	driftPct float64
	errs     []string
}

func (s *set) unstable() bool { return math.Abs(s.driftPct) > hostUnstableDriftPct }

// failures returns every failed check of the set.
func (s *set) failures() []string {
	out := append([]string(nil), s.errs...)
	for _, w := range workloadNames {
		out = append(out, s.by[w].failures()...)
	}
	return out
}

// runSet runs `rounds` rounds over every workload. Repetitions are
// interleaved round-robin (round 1 of each workload, then round 2 …)
// because the host drifts by tens of percent over minutes while holding
// within a few percent inside a tight series: interleaving spreads the
// drift over all workloads instead of charging it to one. tracedRound
// says which rounds run traced.
func (h *harness) runSet(rounds int, layers bool, tracedRound func(round int) bool) *set {
	s := &set{host: describeHost(h.seed), by: map[string]*results{}}
	for _, w := range workloadNames {
		s.by[w] = &results{workload: w}
	}
	var cal []float64
	for round := 0; round < rounds; round++ {
		traced := tracedRound != nil && tracedRound(round)
		for _, w := range workloadNames {
			rec, err := h.rep(w, traced, layers)
			if err != nil {
				s.errs = append(s.errs, err.Error())
				continue
			}
			cal = append(cal, rec.CalibBefore, rec.CalibAfter)
			rs := s.by[w]
			if traced {
				rs.traced = append(rs.traced, rec)
			} else {
				rs.untraced = append(rs.untraced, rec)
			}
			fmt.Fprintf(h.log, "  round %d %-20s traced=%-5v setup %7.3fs job %7.3fs cpu %7.3fs live %6.1f MiB rss %5.0f MiB calib %.2f/%.2f ms\n",
				round+1, w, traced, rec.SetupS, rec.JobS, rec.JobCPUS, rec.LiveRSSMB, rec.PeakRSSMB, rec.CalibBefore, rec.CalibAfter)
		}
	}
	s.by[wlFabricSharded].reference = s.by[wlFabricBacklog].untraced
	for _, w := range workloadNames {
		s.by[w].check(h.sc)
	}
	if len(cal) > 0 {
		s.driftPct = calibDriftPct(cal)
	}
	return s
}

// printSet prints the end-to-end table and each workload's statistics.
func (h *harness) printSet(s *set) {
	fmt.Fprintf(h.log, "\nhost %s\n", mustJSON(s.host))
	label := "host-stable"
	if s.unstable() {
		label = "host-unstable"
	}
	fmt.Fprintf(h.log, "host.calib_drift_pct %+.2f %% over the set: %s\n\n", s.driftPct, label)
	fmt.Fprintf(h.log, "%-20s %-12s %-5s %12s %12s %12s %3s  %s\n", "workload", "metric", "unit", "median", "min", "max", "n", "bound")
	for _, w := range workloadNames {
		rs := s.by[w]
		for _, m := range endToEnd {
			vs := rs.endToEndValues(m.Name)
			lo, hi := minMax(vs)
			fmt.Fprintf(h.log, "%-20s %-12s %-5s %12.4f %12.4f %12.4f %3d  %.0f%%\n", w, m.Name, m.Unit, median(vs), lo, hi, len(vs), m.Bound*100)
		}
		attempted, failed := rs.counts()
		pct := 0.0
		if attempted > 0 {
			pct = float64(failed) / float64(attempted) * 100
		}
		fmt.Fprintf(h.log, "%-20s %-12s %-5s %12.4f %12s %12s %3d  0%%\n", w, "ops_failed_pct", "%", pct, "-", "-", attempted)
	}
	fmt.Fprintln(h.log)
	for _, w := range workloadNames {
		vals := s.by[w].layerValues()
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(h.log, "%s:\n", w)
		for _, k := range names {
			fmt.Fprintf(h.log, "  %-44s %16.6g %s\n", k, vals[k], unitOf(k))
		}
	}
}

// report prints the set's failed checks and returns the exit code.
func (h *harness) report(failures []string) int {
	if len(failures) == 0 {
		fmt.Fprintln(h.log, "\nall correctness checks passed")
		return 0
	}
	fmt.Fprintln(h.log)
	for _, f := range failures {
		fmt.Fprintf(h.log, "CHECK FAILED: %s\n", f)
	}
	return 1
}

// setReps is how many repetitions of each workload a set runs. It is a
// constant: published baselines compare only at the same count.
const setReps = 4

// setRun is `go run -C bench . -seed S`: every workload, every end-to-end
// metric, every correctness check.
func (h *harness) setRun() int {
	fmt.Fprintf(h.log, "set: %d workloads x %d repetitions, seed %d, scale %s\n", len(workloadNames), setReps, h.seed, h.sc.Name)
	s := h.runSet(setReps, false, nil)
	h.printSet(s)
	return h.report(s.failures())
}

// tracedRun is `-trace out.json`: each workload once with spans recorded,
// between two untraced repetitions that price the tracing.
func (h *harness) tracedRun(out string) int {
	fmt.Fprintf(h.log, "traced run: untraced, traced, untraced repetition of each workload, seed %d\n", h.seed)
	s := h.runSet(3, true, func(round int) bool { return round == 1 })
	var traced []record
	for _, w := range workloadNames {
		traced = append(traced, s.by[w].traced...)
		printSelfTimes(h.log, s.by[w], s.by[w].layerValues())
	}
	failures := s.failures()
	if out != "" {
		if err := writeTraceFile(out, traced); err != nil {
			failures = append(failures, err.Error())
		} else {
			fmt.Fprintf(h.log, "spans of %d repetitions written to %s\n", len(traced), out)
		}
	}
	return h.report(failures)
}

// overheads measures telemetry.overhead_pct (clos128_rpc bare vs
// telemetry-only) and audit.overhead_pct (telemetry-only vs telemetry +
// audit) from `rounds` interleaved A,B,C rounds. Each round yields one
// overhead from adjacent runs, so host drift between rounds cancels; the
// reading is the median over rounds, with its MAD, so that a sign that
// flips shows as a MAD wider than the value.
func (h *harness) overheads(rounds int) (telemetryPct, auditPct reading, errs []string) {
	var tel, aud []float64
	for i := 0; i < rounds; i++ {
		var job [3]float64
		for v, name := range []string{wlRPC, wlRPCTelemetry, wlRPCAudit} {
			rec, err := h.rep(name, false, false)
			if err != nil {
				return telemetryPct, auditPct, append(errs, err.Error())
			}
			errs = append(errs, rec.Checks...)
			job[v] = rec.JobS
		}
		tel = append(tel, (job[1]/job[0]-1)*100)
		aud = append(aud, (job[2]/job[1]-1)*100)
		fmt.Fprintf(h.log, "  overhead round %d: bare %.3fs telemetry %.3fs audit %.3fs\n", i+1, job[0], job[1], job[2])
	}
	return reading{median(tel), mad(tel), len(tel)}, reading{median(aud), mad(aud), len(aud)}, errs
}

// goldens replays every golden experiment at the golden file's pinned
// options with one job and counts the drifts.
func goldens() (wallS float64, drifts int, err error) {
	g, err := experiments.LoadGolden("../golden_metrics.json")
	if err != nil {
		return 0, 0, err
	}
	jobs, err := experiments.ExpandIDs(experiments.AllIDs(), g.Options, 1)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	runner := &experiments.Runner{Jobs: 1}
	var reports []*experiments.Report
	for _, res := range runner.Run(jobs) {
		if res.Err != nil {
			return 0, 0, res.Err
		}
		reports = append(reports, res.Report)
	}
	return time.Since(t0).Seconds(), len(g.Compare(reports)), nil
}

// layerRun is `-layers`: every per-layer metric, never gated, always
// recorded. Drivers run a second per timed loop; in-run metrics come from
// two untraced and one traced repetition of every workload.
func (h *harness) layerRun() int {
	fmt.Fprintf(h.log, "layer run, seed %d, scale %s\nhost %s\n", h.seed, h.sc.Name, mustJSON(describeHost(h.seed)))
	budget := time.Second
	overheadRounds := 5
	if h.sc.smoke() {
		budget, overheadRounds = 5*time.Millisecond, 1
	}
	micro, failures := runLayers(h.sc, h.seed, budget)
	names := make([]string, 0, len(micro))
	for k := range micro {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(h.log, "\n%-46s %14s %12s %5s  %s\n", "layer driver", "median", "MAD", "n", "unit")
	for _, k := range names {
		r := micro[k]
		fmt.Fprintf(h.log, "%-46s %14.6g %12.4g %5d  %s\n", k, r.Value, r.MAD, r.N, unitOf(k))
	}

	fmt.Fprintln(h.log, "\nper-workload metrics (suffix .<workload>):")
	s := h.runSet(3, true, func(round int) bool { return round == 1 })
	failures = append(failures, s.failures()...)
	for _, w := range workloadNames {
		vals := s.by[w].layerValues()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h.log, "%-60s %16.6g %s\n", k+"."+w, vals[k], unitOf(k))
		}
	}

	fmt.Fprintln(h.log, "\noverhead pairs (interleaved):")
	tel, aud, errs := h.overheads(overheadRounds)
	failures = append(failures, errs...)
	fmt.Fprintf(h.log, "%-46s %+14.3f %12.3f %5d  %%\n", "telemetry.overhead_pct", tel.Value, tel.MAD, tel.N)
	fmt.Fprintf(h.log, "%-46s %+14.3f %12.3f %5d  %%\n", "audit.overhead_pct", aud.Value, aud.MAD, aud.N)

	if !h.sc.smoke() {
		fmt.Fprintln(h.log, "\ngolden experiments (one job):")
		wall, drifts, err := goldens()
		if err != nil {
			failures = append(failures, "golden experiments: "+err.Error())
		} else {
			fmt.Fprintf(h.log, "%-46s %14.3f s\n%-46s %14d count\n", "experiments.golden_wall_s", wall, "experiments.golden_drifts", drifts)
			if drifts != 0 {
				failures = append(failures, fmt.Sprintf("%d golden metrics drifted", drifts))
			}
		}
	}
	return h.report(failures)
}

// selfcheck runs two full sets back to back on the same build and fails
// when any end-to-end median moved by more than its bound, any exact
// metric moved at all, or an overhead changed sign; it then runs a short
// set on the held-out seed 7 so the correctness checks are shown to pass
// off the development seed.
func (h *harness) selfcheck() int {
	overheadRounds := 5
	if h.sc.smoke() {
		overheadRounds = 1
	}
	type half struct {
		set      *set
		tel, aud reading
	}
	var halves [2]half
	var failures []string
	for i := range halves {
		fmt.Fprintf(h.log, "selfcheck: set %d of 2, seed %d\n", i+1, h.seed)
		s := h.runSet(setReps, false, nil)
		tel, aud, errs := h.overheads(overheadRounds)
		halves[i] = half{s, tel, aud}
		failures = append(failures, s.failures()...)
		failures = append(failures, errs...)
	}
	a, b := halves[0], halves[1]
	fmt.Fprintf(h.log, "\nhost %s\n", mustJSON(a.set.host))
	for i, hf := range halves {
		if hf.set.unstable() {
			fmt.Fprintf(h.log, "set %d is host-unstable: calibration drifted %+.1f%%\n", i+1, hf.set.driftPct)
		}
	}
	fmt.Fprintf(h.log, "\n%-20s %-12s %12s %12s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "diff", "bound", "verdict")
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			va, vb := median(a.set.by[w].endToEndValues(m.Name)), median(b.set.by[w].endToEndValues(m.Name))
			d := relDiff(va, vb)
			verdict := "ok"
			if math.Abs(d) > m.Bound {
				verdict = "DIFFERS"
				failures = append(failures, fmt.Sprintf("selfcheck: %s %s moved %+.1f%% between two sets of the same build (bound %.0f%%)", w, m.Name, d*100, m.Bound*100))
			}
			fmt.Fprintf(h.log, "%-20s %-12s %12.4f %12.4f %+8.2f%% %6.0f%%  %s\n", w, m.Name, va, vb, d*100, m.Bound*100, verdict)
		}
		ra, rb := a.set.by[w].all(), b.set.by[w].all()
		if len(ra) > 0 && len(rb) > 0 {
			if ra[0].Digest != rb[0].Digest {
				failures = append(failures, fmt.Sprintf("selfcheck: %s digest differs between sets: %+v vs %+v", w, ra[0].Digest, rb[0].Digest))
			}
			if d := diffExact(ra[0].Exact, rb[0].Exact); d != "" {
				failures = append(failures, fmt.Sprintf("selfcheck: %s exact metrics differ between sets: %s", w, d))
			}
		}
	}
	for _, o := range []struct {
		name string
		a, b reading
	}{{"telemetry.overhead_pct", a.tel, b.tel}, {"audit.overhead_pct", a.aud, b.aud}} {
		verdict := "same sign"
		if (o.a.Value > 0) != (o.b.Value > 0) {
			verdict = "SIGN FLIPPED"
			failures = append(failures, fmt.Sprintf("selfcheck: %s changed sign between sets: %+.2f%% vs %+.2f%%", o.name, o.a.Value, o.b.Value))
		}
		fmt.Fprintf(h.log, "%-33s %+11.2f%% %+11.2f%% (MAD %.2f / %.2f)  %s\n", o.name, o.a.Value, o.b.Value, o.a.MAD, o.b.MAD, verdict)
	}

	const heldOutSeed = 7
	fmt.Fprintf(h.log, "\nselfcheck: correctness checks on the held-out seed %d\n", heldOutSeed)
	held := &harness{exe: h.exe, sc: h.sc, seed: heldOutSeed, log: h.log}
	failures = append(failures, held.runSet(2, false, nil).failures()...)
	return h.report(failures)
}
