package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// pinned.json is the benchmark's guard across commits. The end-to-end
// metrics are all costs (time, CPU, allocation, memory); what the cost buys
// is the simulated outcome, and the digest checks of one run compare only
// repetitions of the same build. So the outcome of every workload on seeds
// 1..pinnedSeeds, recorded at the commit that defined the benchmark, is
// held here, and a run whose outcome is worse fails `correct`: a later
// change cannot win job_wall_s by delivering less. Only a benchmark issue
// re-baselines (`go run -C bench . -pin`).
//
//go:embed pinned.json
var pinnedJSON []byte

// pinnedSeeds is how many seeds, from 1, are pinned. The benchmark driver
// chooses its own seeds; on a seed outside the range a run says so and
// checks its outcome against its own repetitions only.
const pinnedSeeds = 32

// pinTolerance is the share by which a simulated outcome may be worse than
// the pinned one: 0.1 %, the bound the defining issue put on
// sim_goodput_gbps and sim_slowdown_p99. The event count is not held at
// all: a change that delivers the same simulation with fewer events must
// win.
const pinTolerance = 0.001

// pinnedFile is the layout of pinned.json.
type pinnedFile struct {
	Scale string `json:"scale"`
	// Outcomes is keyed by workload name, then by seed in decimal.
	Outcomes map[string]map[string]digest `json:"outcomes"`
}

// pinned is the decoded pinned.json, read once.
var pinned = func() pinnedFile {
	var p pinnedFile
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		panic("bench: pinned.json: " + err.Error())
	}
	return p
}()

// pinnedDigest returns the outcome a workload is held to on a seed; false
// when the seed is not pinned or the scale is not the pinned one.
func pinnedDigest(workload string, sc scale, seed int64) (digest, bool) {
	if sc.Name != pinned.Scale {
		return digest{}, false
	}
	d, ok := pinned.Outcomes[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// worseThan names every simulated outcome of d that is worse than pin's by
// more than pinTolerance: fewer bytes delivered, fewer messages completed
// (admissions on ctl_churn), more drops, a higher p99 slowdown.
func (d digest) worseThan(pin digest) []string {
	var out []string
	fewer := func(what string, got, want float64) {
		if got < want*(1-pinTolerance) {
			out = append(out, fmt.Sprintf("%s %.6g, pinned %.6g", what, got, want))
		}
	}
	more := func(what string, got, want float64) {
		if got > want*(1+pinTolerance) {
			out = append(out, fmt.Sprintf("%s %.6g, pinned %.6g", what, got, want))
		}
	}
	fewer("delivered bytes", float64(d.DeliveredBytes), float64(pin.DeliveredBytes))
	fewer("completed", float64(d.Completed), float64(pin.Completed))
	more("drops", float64(d.Drops), float64(pin.Drops))
	more("slowdown p99", math.Float64frombits(d.SlowdownP99Bits), math.Float64frombits(pin.SlowdownP99Bits))
	return out
}

// pinRun is `-pin`: one repetition of every workload on every pinned seed,
// written to pinned.json in the working directory (bench/, under
// `go run -C bench .`). The next build embeds it.
func (h *harness) pinRun() int {
	if h.sc.Name != fullScale.Name {
		fmt.Fprintln(h.log, "bench: only the full scale is pinned")
		return 2
	}
	p := pinnedFile{Scale: h.sc.Name, Outcomes: map[string]map[string]digest{}}
	var failures []string
	for seed := int64(1); seed <= pinnedSeeds; seed++ {
		one := &harness{exe: h.exe, sc: h.sc, seed: seed, log: h.log}
		for _, w := range workloadNames {
			rec, err := one.rep(w, false, false)
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			failures = append(failures, rec.Checks...)
			if p.Outcomes[w] == nil {
				p.Outcomes[w] = map[string]digest{}
			}
			p.Outcomes[w][strconv.FormatInt(seed, 10)] = rec.Digest
			fmt.Fprintf(h.log, "  seed %2d %-20s %+v\n", seed, w, rec.Digest)
		}
	}
	if len(failures) == 0 {
		b, err := json.MarshalIndent(p, "", " ")
		if err == nil {
			err = os.WriteFile("pinned.json", append(b, '\n'), 0o644)
		}
		if err != nil {
			failures = append(failures, "pinned.json: "+err.Error())
		} else {
			fmt.Fprintf(h.log, "pinned.json rewritten: %d workloads x %d seeds\n", len(workloadNames), pinnedSeeds)
		}
	}
	return h.report(failures)
}
