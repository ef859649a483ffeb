// Command ufabsim runs the μFAB paper-reproduction experiments and prints
// the rows/series each table and figure of the evaluation reports.
//
// Usage:
//
//	ufabsim list                 # list experiment ids
//	ufabsim run all              # run everything at full scale
//	ufabsim run fig11 fig12      # run selected experiments
//	ufabsim -quick run all       # scaled-down runs (the bench settings)
//	ufabsim -seed 7 run fig4     # change the deterministic seed
//	ufabsim -jobs 8 run all      # run up to 8 experiments in parallel
//	ufabsim -repeat 3 run fig4   # 3 runs with seeds seed, seed+1, seed+2
//	ufabsim tables               # just the resource-model tables
//	ufabsim -scenario f.json run chaoslab  # replay a fault scenario
//	ufabsim -telemetry -metrics m.json run all  # export registry snapshots
//	ufabsim trace fig15          # flight-recorder JSONL on stdout
//	ufabsim trace -strict fig15  # fail if the recorder ring dropped events
//	ufabsim trace -format perfetto chaoslab  # Chrome trace-event JSON (Perfetto UI)
//	ufabsim -audit run fig15     # attach the predictability auditor
//	ufabsim audit all            # audited replay; fail on unexcused findings
//	ufabsim -findings f.jsonl audit all  # export findings as JSONL
//	ufabsim fuzz -seeds 50       # scenario fuzzing with the auditor as oracle
//	ufabsim fuzz -seeds 200 -shrink -out failures  # minimize + save failures
//	ufabsim fuzz -seeds 0 -corpus internal/fuzz/testdata/regressions  # corpus replay
//	ufabsim fuzz -replay case.json  # re-run one saved case
//	ufabsim serve -store /var/lib/ufab  # always-on control-plane daemon
//	ufabsim serve -churn -addr :7663    # with an open-loop background workload
//	ufabsim ctl status           # query a running daemon (see 'ufabsim ctl')
//	ufabsim check                # replay evaluation vs golden_metrics.json and the registry's claims
//	ufabsim check -update        # re-record the golden baseline (refused while a claim is false)
//	ufabsim check -telemetry     # replay with instrumentation attached
//	ufabsim check -audit         # replay audited; findings must be clean
//	ufabsim probe encode -hops 3 # build/inspect the INT probe wire format
//	ufabsim topo fattree -k 4 -dot  # topology summaries, paths, Graphviz
//
// Experiment runs are deterministic per (experiment, quick, seed), so a
// parallel batch produces Reports identical to a sequential one; only the
// wall-time annotations differ. Telemetry never feeds back into the
// simulation, so -telemetry does not change any result either; the same
// holds for the auditor (-audit), which is a pure observer of the
// telemetry stream.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"ufab/internal/chaos"
	"ufab/internal/experiments"
	"ufab/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "run scaled-down experiments (bench scale)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	csvDir := flag.String("csv", "", "directory to export figure curves as CSV")
	jobs := flag.Int("jobs", 0, "max concurrent experiment runs (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
	repeat := flag.Int("repeat", 1, "runs per experiment, with seeds seed..seed+repeat-1")
	scenario := flag.String("scenario", "", "chaos scenario JSON file, replayed by the chaoslab experiment")
	telemetry := flag.Bool("telemetry", false, "attach the unified telemetry registry (link/agent instruments + flight recorder) to each run's fabric")
	metricsOut := flag.String("metrics", "", "write every run's registry snapshot as JSON to this file (implies -telemetry)")
	shards := flag.Int("shards", 0, "worker goroutines executing each run's pod shards: 0 = inline on the run's own goroutine, N >= 1 = N workers in parallel (results are bit-identical across values)")
	auditFlag := flag.Bool("audit", false, "attach the online predictability auditor to each run's fabric (implies -telemetry for it)")
	findingsOut := flag.String("findings", "", "write every run's audit findings as JSONL to this file (implies -audit)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Shards: *shards,
		Telemetry: *telemetry || *metricsOut != "",
		Audit:     *auditFlag || *findingsOut != ""}
	if *scenario != "" {
		b, err := os.ReadFile(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "read scenario: %v\n", err)
			os.Exit(1)
		}
		if _, err := chaos.Parse(b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Scenario = string(b)
	}
	runner := &experiments.Runner{Jobs: *jobs, Timeout: *timeout}
	exportCSV = *csvDir
	exportMetrics = *metricsOut
	exportFindings = *findingsOut
	switch args[0] {
	case "list":
		for _, e := range experiments.All {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "tables":
		run(runner, opts, *repeat, "tab3", "tab4")
	case "run":
		ids := args[1:]
		if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
			ids = experiments.AllIDs()
		}
		run(runner, opts, *repeat, ids...)
	case "trace":
		trace(opts, args[1:])
	case "audit":
		auditCmd(runner, opts, *repeat, args[1:])
	case "check":
		check(runner, args[1:], opts)
	case "fuzz":
		fuzzCmd(args[1:])
	case "serve":
		serveCmd(args[1:])
	case "ctl":
		ctlCmd(args[1:])
	case "probe":
		probeCmd(args[1:])
	case "topo":
		topoCmd(args[1:])
	default:
		usage()
		os.Exit(2)
	}
}

var (
	exportCSV      string
	exportMetrics  string
	exportFindings string
)

// run executes the batch on the worker pool and prints reports in job
// order (streamed as each ordered prefix completes, via Runner's ordered
// results). A failed run is reported and the batch continues; the process
// exits non-zero if any run failed.
func run(runner *experiments.Runner, opts experiments.Options, repeat int, ids ...string) {
	jobs, err := experiments.ExpandIDs(ids, opts, repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (try 'ufabsim list')\n", err)
		os.Exit(1)
	}
	results := runner.Run(jobs)
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", res.Err)
			continue
		}
		rep := res.Report
		fmt.Print(rep.String())
		if exportCSV != "" && rep.SeriesCount() > 0 {
			if err := os.MkdirAll(exportCSV, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := rep.WriteCSV(exportCSV); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("-- %d curves exported to %s --\n", rep.SeriesCount(), exportCSV)
		}
		if rep.Findings != nil {
			fmt.Printf("-- audit: %d excused / %d unexcused finding(s) --\n",
				rep.Findings.Excused(), rep.Findings.Unexcused())
		}
		fmt.Printf("-- wall time %.1fs --\n\n", res.Wall.Seconds())
	}
	if exportMetrics != "" {
		if err := writeMetrics(exportMetrics, results, repeat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("-- registry snapshots written to %s --\n", exportMetrics)
	}
	if exportFindings != "" {
		if err := writeFindings(exportFindings, results, repeat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("-- audit findings written to %s --\n", exportFindings)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d runs failed\n", failed, len(results))
		os.Exit(1)
	}
}

// writeFindings exports every run's audit findings as JSONL, one finding
// per line with the experiment id prepended as the first field, so a
// batch's findings remain attributable and the file is jq-friendly. Line
// order is job order, so the file is byte-identical regardless of -jobs.
func writeFindings(path string, results []experiments.RunResult, repeat int) error {
	var buf bytes.Buffer
	for _, res := range results {
		if res.Err != nil || res.Report.Findings == nil {
			continue
		}
		key := res.Job.Entry.ID
		if repeat > 1 {
			key = fmt.Sprintf("%s@seed%d", key, res.Job.Opts.Seed)
		}
		var runBuf bytes.Buffer
		if err := res.Report.Findings.WriteJSONL(&runBuf); err != nil {
			return err
		}
		for _, line := range bytes.SplitAfter(runBuf.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			// Each finding line is `{"kind":...}`; splice the experiment id
			// in as the leading field.
			fmt.Fprintf(&buf, "{\"experiment\":%q,", key)
			buf.Write(line[1:])
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// auditCmd replays experiments with the predictability auditor attached
// and fails when any run has unexcused findings, drops findings, or
// produces fewer excused findings than its chaos scenario declares. It is
// the CLI face of the standing audit gate.
func auditCmd(runner *experiments.Runner, opts experiments.Options, repeat int, ids []string) {
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = experiments.AllIDs()
	}
	opts.Audit = true
	jobs, err := experiments.ExpandIDs(ids, opts, repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (try 'ufabsim list')\n", err)
		os.Exit(1)
	}
	t0 := time.Now()
	results := runner.Run(jobs)
	bad := 0
	audited := 0
	for _, res := range results {
		if res.Err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", res.Err)
			continue
		}
		rep := res.Report
		if rep.Findings == nil {
			fmt.Printf("%-8s no fabric under audit\n", rep.ID)
			continue
		}
		audited++
		excused, unexcused := rep.Findings.Excused(), rep.Findings.Unexcused()
		verdict := "clean"
		if unexcused > 0 {
			verdict = "VIOLATIONS"
		}
		fmt.Printf("%-8s %s: %d excused / %d unexcused finding(s)\n", rep.ID, verdict, excused, unexcused)
		for _, f := range rep.Findings.Findings() {
			if !f.Excused {
				fmt.Printf("  %s %s [%d ps, %d ps] observed %g vs bound %g %s\n",
					f.Kind, f.Entity, f.FromPS, f.ToPS, f.Observed, f.Bound, f.Unit)
			}
		}
		for _, err := range experiments.CheckAudit([]*experiments.Report{rep}) {
			bad++
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if exportFindings != "" {
		if err := writeFindings(exportFindings, results, repeat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("-- audit findings written to %s --\n", exportFindings)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "audit: %d problem(s) across %d runs\n", bad, len(results))
		os.Exit(1)
	}
	fmt.Printf("audit ok: %d audited runs clean in %.1fs\n", audited, time.Since(t0).Seconds())
}

// writeMetrics dumps each run's full registry snapshot (headline metrics,
// fabric instruments, series) as one JSON object keyed by experiment id —
// "<id>@seed<seed>" when -repeat ran an id more than once. Key order is
// job order, so the file is byte-identical regardless of -jobs.
func writeMetrics(path string, results []experiments.RunResult, repeat int) error {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	first := true
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		if !first {
			buf.WriteString(",\n")
		}
		first = false
		key := res.Job.Entry.ID
		if repeat > 1 {
			key = fmt.Sprintf("%s@seed%d", key, res.Job.Opts.Seed)
		}
		fmt.Fprintf(&buf, "%q: ", key)
		res.Report.Reg.Snapshot().WriteJSON(&buf)
	}
	buf.WriteString("\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// trace runs one experiment with the flight recorder enabled and streams
// the recorded events as JSONL on stdout; the report text goes to stderr
// so the two can be piped apart.
func trace(opts experiments.Options, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	strict := fs.Bool("strict", false, "exit non-zero when the flight-recorder ring dropped events (the exported trace is incomplete)")
	format := fs.String("format", "jsonl", "trace output format: jsonl (one event per line) or perfetto (Chrome trace-event JSON, loadable in Perfetto/chrome://tracing)")
	fs.Parse(args)
	args = fs.Args()
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: ufabsim [flags] trace [-strict] [-format jsonl|perfetto] <experiment>")
		os.Exit(2)
	}
	if *format != "jsonl" && *format != "perfetto" {
		fmt.Fprintf(os.Stderr, "unknown trace format %q (want jsonl or perfetto)\n", *format)
		os.Exit(2)
	}
	e := experiments.Find(args[0])
	if e == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try 'ufabsim list')\n", args[0])
		os.Exit(1)
	}
	opts.Telemetry = true
	rep := e.Run(opts)
	fmt.Fprint(os.Stderr, rep.String())
	if rep.Reg.Recorder() == nil {
		fmt.Fprintln(os.Stderr, "no flight recorder attached")
		os.Exit(1)
	}
	// Totals and the exported stream span every recorder of the run — the
	// base ring plus, under -shards, one ring per logical shard — merged
	// into one canonical order.
	total, dropped := rep.Reg.TraceTotals()
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "-- flight recorder: %d events (oldest %d dropped by the rings) --\n",
			total, dropped)
		fmt.Fprintf(os.Stderr, "warning: the trace below is missing its oldest %d events — a ring wrapped; re-run with a larger recorder capacity or a shorter horizon for a complete trace\n",
			dropped)
	} else {
		fmt.Fprintf(os.Stderr, "-- flight recorder: %d events --\n", total)
	}
	// One summary line per histogram, so the latency shape of the run is
	// visible next to the trace without opening the snapshot.
	for _, h := range rep.Reg.Snapshot().Histograms {
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "   %-40s n=%-7d p50=%.4g p99=%.4g max=%.4g\n",
			h.Name, h.Count, stats.BucketQuantile(h, 0.5), stats.BucketQuantile(h, 0.99), h.Max)
	}
	var err error
	if *format == "perfetto" {
		err = rep.Reg.WritePerfettoJSON(os.Stdout)
	} else {
		err = rep.Reg.WriteTraceJSONL(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *strict && dropped > 0 {
		os.Exit(1)
	}
}

// check replays the whole evaluation at the golden file's pinned options
// and fails on metric drift or on a registry claim that does not hold. With
// -update it re-records the baseline, unless a claim is false.
// Telemetry, auditing and any worker count must all reproduce the same
// numbers, so CI runs check in every mode against one golden file.
func check(runner *experiments.Runner, args []string, cli experiments.Options) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	golden := fs.String("golden", "golden_metrics.json", "golden metrics file")
	update := fs.Bool("update", false, "re-record the baseline instead of checking")
	tol := fs.Float64("tol", 1e-6, "default relative tolerance when recording with -update")
	telemetry := fs.Bool("telemetry", false, "attach the telemetry registry during the replay (results must not change)")
	auditFlag := fs.Bool("audit", false, "attach the predictability auditor during the replay (results must not change, findings must be clean)")
	shards := fs.Int("shards", -1, "replay with N workers executing the pod shards (results must not change); -1 inherits the top-level -shards")
	fs.Parse(args)

	opts := experiments.Options{Quick: true, Seed: 1}
	var g *experiments.Golden
	if !*update {
		var err error
		g, err = experiments.LoadGolden(*golden)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load golden: %v (run 'ufabsim check -update' to record one)\n", err)
			os.Exit(1)
		}
		opts = g.Options
	}
	opts.Telemetry = cli.Telemetry || *telemetry
	opts.Audit = cli.Audit || *auditFlag
	opts.Shards = cli.Shards
	if *shards >= 0 {
		opts.Shards = *shards
	}

	t0 := time.Now()
	jobs, err := experiments.ExpandIDs(experiments.AllIDs(), opts, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	results := runner.Run(jobs)
	var reports []*experiments.Report
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", res.Err)
			os.Exit(1)
		}
		reports = append(reports, res.Report)
	}
	wall := time.Since(t0).Seconds()

	if exportMetrics != "" {
		if err := writeMetrics(exportMetrics, results, 1); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// The paper's claims are part of the gate in every mode, and of the
	// recording too: a golden whose claims are false pins a broken evaluation.
	held, falseClaims := experiments.CheckClaims(reports)
	for _, err := range falseClaims {
		fmt.Fprintf(os.Stderr, "%v\n", err)
	}
	if *update {
		if len(falseClaims) > 0 {
			fmt.Fprintf(os.Stderr, "%d claim(s) false: %s not recorded\n", len(falseClaims), *golden)
			os.Exit(1)
		}
		g := experiments.BuildGolden(opts, reports, *tol)
		// The baseline must never pin telemetry, auditing or a worker
		// count: check replays with the recorded options, and every mode
		// must reproduce it.
		g.Options.Telemetry = false
		g.Options.Audit = false
		g.Options.Shards = 0
		if err := g.Save(*golden); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d experiments, %d claims hold, to %s in %.1fs\n", len(reports), held, *golden, wall)
		return
	}
	drifts := g.Compare(reports)
	if len(drifts) > 0 {
		fmt.Fprintf(os.Stderr, "metric drift vs %s (%d issues):\n", *golden, len(drifts))
		for _, d := range drifts {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
	}
	if len(drifts)+len(falseClaims) > 0 {
		os.Exit(1)
	}
	if failed := experiments.CheckAudit(reports); len(failed) > 0 {
		for _, err := range failed {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
	mode := "telemetry off"
	if opts.Telemetry {
		mode = "telemetry on"
	}
	if opts.Audit {
		mode += ", audited"
	}
	if opts.Shards > 0 {
		mode += fmt.Sprintf(", %d workers", opts.Shards)
	}
	fmt.Printf("check ok: %d experiments match %s, %d claims hold, in %.1fs (%s)\n", len(reports), *golden, held, wall, mode)
}

func usage() {
	fmt.Fprintf(os.Stderr, `ufabsim — uFAB (SIGCOMM'22) reproduction harness

usage:
  ufabsim [flags] list
  ufabsim [flags] run all | <id>...
  ufabsim [flags] tables
  ufabsim [flags] trace [-strict] [-format jsonl|perfetto] <id>
  ufabsim [flags] audit all | <id>...
  ufabsim [flags] check [-golden file] [-update] [-tol t] [-telemetry] [-audit]
  ufabsim fuzz [-seeds n] [-seed0 s] [-budget d] [-shrink] [-out dir] [-corpus dir] [-replay file]
  ufabsim serve [-addr a] [-store dir] [-seed s] [-churn] [-policy p] [-oversub f] [-slots n]
  ufabsim ctl [-addr a] <verb> [args]   (ufabsim ctl -h for verbs)
  ufabsim probe decode <hex>|-
  ufabsim probe encode [-kind k] [-vm n] [-path n] [-seq n] [-phi f] [-window n] [-peer-phi f] [-hops n] [-tx f] [-queue n] [-cap f]
  ufabsim topo <testbed|fattree|clos|twotier|star> [-k n] [-cores n] [-aggs n] [-hosts n] [-dot] [-src i -dst j]

flags:
`)
	flag.PrintDefaults()
}
