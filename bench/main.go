// Command bench is the μFAB benchmark: five workloads, five end-to-end
// metrics, per-layer metrics and a traced run, all measured from outside
// the program through the exported functions of its packages.
//
// The benchmark driver runs it one workload at a time (BENCHMARK.json):
//
//	go run -C bench . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// On its own it runs every workload:
//
//	go run -C bench . -seed 1              # the set: end-to-end metrics
//	go run -C bench . -layers              # every per-layer metric
//	go run -C bench . -trace out.json      # one traced repetition each
//	go run -C bench . -selfcheck           # two sets must agree
//	go run -C bench . -pin                 # re-baseline pinned.json (a benchmark issue only)
//
// See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	start := time.Now()
	var (
		workload  = flag.String("workload", "", "run this one workload under the benchmark contract and print one JSON result line")
		seed      = flag.Int64("seed", 1, "seed of every generated input (vfabric.Config.Seed, workload RNGs, request stream)")
		seconds   = flag.Int("seconds", benchmarkRunSeconds, "with -workload: how long to measure")
		trace     = flag.String("trace", "0", "0: untraced; 1: traced run, per-layer metrics; a path: traced run, spans written there as Chrome trace JSON")
		layers    = flag.Bool("layers", false, "run every per-layer driver at full length, the overhead pairs and the golden experiments")
		selfcheck = flag.Bool("selfcheck", false, "run two sets back to back and fail if they disagree beyond the bounds; then check seed 7")
		pin       = flag.Bool("pin", false, "rewrite pinned.json, the simulated outcomes every later commit is held to; only a benchmark issue re-baselines")
		smoke     = flag.Bool("smoke", false, "tiny sizes: exercises every path, measures nothing")
		child     = flag.Bool("child", false, "internal: run one repetition in this process")
		repID     = flag.String("rep", "", "internal: repetition id")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	traced := *trace != "0"
	traceOut := ""
	if traced && *trace != "1" {
		traceOut = *trace
	}

	if *child {
		return runChild(*workload, sc, *seed, traced, *layers, start, *repID)
	}
	if *workload != "" && !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	h := &harness{exe: exe, sc: sc, seed: *seed, log: os.Stderr, out: os.Stdout}
	switch {
	case *workload != "":
		return h.driver(*workload, *seconds, traced, traceOut)
	case *selfcheck:
		h.log = os.Stdout
		return h.selfcheck()
	case *pin:
		h.log = os.Stdout
		return h.pinRun()
	case *layers:
		h.log = os.Stdout
		return h.layerRun()
	case traced:
		h.log = os.Stdout
		return h.tracedRun(traceOut)
	default:
		h.log = os.Stdout
		return h.setRun()
	}
}

// runChild runs one repetition and prints its result as one JSON line.
// start is when this process entered main: set-up time counts from there.
func runChild(workload string, sc scale, seed int64, traced, layers bool, start time.Time, repID string) int {
	if !knownWorkload(workload) && !isOverheadVariant(workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	var tr *tracer
	if traced {
		tr = newTracer(repID)
	}
	fmt.Println(mustJSON(runWorkload(workload, sc, seed, tr, layers, start)))
	return 0
}
