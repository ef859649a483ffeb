package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostInfo is the descriptor stamped on every record the harness prints:
// without it two numbers from two machines cannot be reconciled.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	UTC        string `json:"utc"`
}

func describeHost(seed int64) hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
		UTC:        time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" off
// Linux or when the file is unreadable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the short commit of the tree the harness runs from, or
// "unknown" where there is no repository (the benchmark driver's checkout
// is a plain directory).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procStatusMiB returns one kB-valued field of /proc/self/status in MiB:
// "VmHWM:" is the resident-set high-water mark, "VmRSS:" the resident set
// now. 0 when /proc is unavailable.
func procStatusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibSink keeps the calibration kernel's result live so the compiler
// cannot remove the loop.
var calibSink uint64

// calibTable is the calibration kernel's 64 MiB pointer-chase table, built
// on first use: table[i] holds the next index of one cycle through all of
// it (a full-period linear congruential step), so following it is a chain
// of dependent loads that no prefetcher predicts and no cache holds.
var calibTable struct {
	once sync.Once
	next []uint32
}

// calibrate runs a fixed pure-Go kernel that uses no repository code and
// returns its wall time in milliseconds. It is the host-drift sentinel:
// the kernel's work never changes, so a different reading means the host
// changed, not the program. A tenth of the kernel is register arithmetic;
// the rest chases pointers through memory, because what slows the
// workloads on a shared host is contention for cache and memory (a
// register-only kernel moved 3 % while the workloads moved 20 %).
func calibrate() float64 {
	const words = 1 << 24
	calibTable.once.Do(func() {
		calibTable.next = make([]uint32, words)
		for i := range calibTable.next {
			calibTable.next[i] = (uint32(i)*1664525 + 1013904223) & (words - 1)
		}
	})
	next := calibTable.next
	t0 := time.Now()
	x, acc := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	idx := uint32(0)
	for i := 0; i < 400_000; i++ {
		idx = next[idx]
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	calibSink += acc + uint64(idx)
	return ms
}
