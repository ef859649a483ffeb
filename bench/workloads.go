package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

// The five workloads. Names are fixed: later issues quote them.
const (
	wlFabricBacklog = "fabric1k_backlog"
	wlFabricSharded = "fabric1k_sharded"
	wlRPC           = "clos128_rpc"
	wlRPCAudited    = "clos128_rpc_audited"
	wlCtlChurn      = "ctl_churn"
)

// workloadNames lists the workloads in the order a set runs them.
var workloadNames = []string{wlFabricBacklog, wlFabricSharded, wlRPC, wlRPCAudited, wlCtlChurn}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// scale fixes the size of one repetition of every workload. The sizes are
// part of the benchmark: two numbers compare only at the same scale.
type scale struct {
	Name string
	// Fabric is the fabric1k_* topology and FabricVFs its tenant count
	// (host i joins VF i mod FabricVFs + 1).
	Fabric        topo.ClosConfig
	FabricVFs     int
	FabricHorizon sim.Duration
	// RPCK is the clos128_* fat-tree arity, RPCVFs its tenant count.
	RPCK       int
	RPCVFs     int
	RPCHorizon sim.Duration
	// Decisions is ctl_churn's closed-loop request count per repetition.
	Decisions int
}

func (s scale) smoke() bool { return s.Name == smokeScale.Name }

// fullScale is the benchmark proper, sized for the 2-core review
// container: a repetition is 1.5-3 s of wall, so that the benchmark driver's
// per-run budget holds six or more of them.
var fullScale = scale{
	Name: "full",
	Fabric: topo.ClosConfig{Pods: 8, ToRsPerPod: 8, AggsPerPod: 4, Cores: 16, HostsPerToR: 16,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond},
	FabricVFs:     128,
	FabricHorizon: 500 * sim.Microsecond,
	RPCK:          8,
	RPCVFs:        128,
	RPCHorizon:    5 * sim.Millisecond,
	Decisions:     8000,
}

// smokeScale passes through every code path of every workload in well
// under a second each; `go test` uses it to keep the harness compiling and
// its correctness checks live. Its numbers mean nothing.
var smokeScale = scale{
	Name: "smoke",
	Fabric: topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Cores: 2, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond},
	FabricVFs:     4,
	FabricHorizon: 200 * sim.Microsecond,
	RPCK:          4,
	RPCVFs:        8,
	RPCHorizon:    2 * sim.Millisecond,
	Decisions:     500,
}

// digest is the exact, simulated outcome of one repetition. A pure
// speed-up must leave it bit-identical; repetitions of one seed must agree
// on it, and fabric1k_sharded's must equal fabric1k_backlog's.
type digest struct {
	Events          uint64 `json:"events"`
	DeliveredBytes  int64  `json:"delivered_bytes"`
	Completed       int64  `json:"completed"`
	Drops           uint64 `json:"drops"`
	SlowdownP99Bits uint64 `json:"slowdown_p99_bits"`
}

// repResult is what one repetition of one workload reports. Wall-clock
// fields differ between repetitions; Digest and Exact do not.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	// SetupS is entry into main → first timed call; JobS the timed section
	// (RunUntil(horizon), or ctl_churn's request loop); JobCPUS the
	// user+system CPU the process used inside it and JobAllocMB the heap it
	// allocated there (TotalAlloc).
	SetupS     float64 `json:"setup_s"`
	JobS       float64 `json:"job_s"`
	JobCPUS    float64 `json:"job_cpu_s"`
	JobAllocMB float64 `json:"job_alloc_mb"`
	// LiveRSSMB is the resident set when the timed section ends, once the
	// collector has returned every free page: what the run really retains.
	// It repeats within a few percent, where the high-water mark PeakRSSMB
	// swings by tens of percent with the collector's timing, and HeapAlloc
	// counts 2 GiB of never-touched μFAB-C table slots on the 1024-host
	// fabric.
	LiveRSSMB float64 `json:"live_rss_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Digest digest `json:"digest"`
	// Exact holds the counts and simulated statistics that repeat exactly
	// for one seed; Wall the per-layer wall-clock readings of this
	// repetition. Both are keyed by per-layer metric name.
	Exact map[string]float64 `json:"exact"`
	Wall  map[string]float64 `json:"wall"`

	// Attempted/Failed count operations: one per sim repetition, one per
	// HTTP request on ctl_churn. Checks lists every failed correctness
	// check in words.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []string `json:"checks,omitempty"`

	// AdmitUs is every client-observed POST /v1/admit latency of a
	// ctl_churn repetition, in µs. The parent pools the repetitions before
	// it takes percentiles: one repetition has too few samples beyond p99.9.
	AdmitUs []float64 `json:"admit_us,omitempty"`

	Spans []span `json:"spans,omitempty"`
}

func (r *repResult) failf(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// memCounters is the slice of runtime.MemStats a repetition brackets its
// timed section with.
type memCounters struct {
	mallocs    uint64
	allocBytes uint64
	pauseNs    uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// liveRSSMiB collects, returns every free page to the operating system
// and reads the resident set that is left, in MiB.
func liveRSSMiB() float64 {
	debug.FreeOSMemory()
	return procStatusMiB("VmRSS:")
}

// runWorkload runs one repetition in this process. start is when the
// repetition's process entered main: SetupS counts from there, on the
// child's own clock, so that exec and scheduling jitter of the parent stay
// out of a reading that is milliseconds on ctl_churn.
func runWorkload(name string, sc scale, seed int64, tr *tracer, layers bool, start time.Time) repResult {
	var r repResult
	if name == wlCtlChurn {
		r = runCtlChurn(sc, seed, tr, start)
	} else {
		r = runSim(name, sc, seed, tr, layers, start)
	}
	r.Workload, r.Seed, r.Traced = name, seed, tr != nil
	r.PeakRSSMB = procStatusMiB("VmHWM:")
	if tr != nil {
		r.Spans = tr.spans
	}
	return r
}
