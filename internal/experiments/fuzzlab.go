package experiments

import (
	"ufab/internal/fuzz"
)

// fuzzLab runs a short deterministic slice of the scenario fuzzer as an
// experiment: generated cases starting at the run's seed, executed under
// the full oracle (auditor + double-run determinism check). It pins the
// generator/executor/oracle pipeline into the golden baseline — any drift
// in case generation, admission outcomes or verdicts shows up as a golden
// diff long before the nightly fuzz sweep would catch it.
func fuzzLab(o Options) *Report {
	r := newReport("fuzzlab", "scenario fuzzer slice under the auditor oracle")
	n := int64(6)
	if o.Quick {
		n = 3
	}
	x := &fuzz.Executor{Replay: true}
	var clean, excused, findings, panics, mismatches int64
	var admitted, rejected int64
	for seed := o.Seed; seed < o.Seed+n; seed++ {
		c := fuzz.Generate(seed)
		res, err := x.Run(c)
		if err != nil {
			r.Printf("seed %d: invalid generated case: %v", seed, err)
			findings++
			continue
		}
		r.Printf("seed %d: %s topo=%s tenants=%d verdict=%s (%d excused / %d unexcused, %d admitted / %d rejected)",
			seed, c.Name, c.Topology.Kind, len(c.Tenants), res.Verdict,
			res.Excused, res.Unexcused, res.Admitted, res.Rejected)
		switch res.Verdict {
		case fuzz.VerdictClean:
			clean++
		case fuzz.VerdictExcused:
			excused++
		case fuzz.VerdictFinding:
			findings++
		case fuzz.VerdictPanic:
			panics++
		case fuzz.VerdictMismatch:
			mismatches++
		}
		admitted += res.Admitted
		rejected += res.Rejected
	}
	r.metric("fuzz.cases", float64(n))
	r.metric("fuzz.clean", float64(clean))
	r.metric("fuzz.excused", float64(excused))
	r.metric("fuzz.findings", float64(findings))
	r.metric("fuzz.panics", float64(panics))
	r.metric("fuzz.mismatches", float64(mismatches))
	r.metric("fuzz.admitted", float64(admitted))
	r.metric("fuzz.rejected", float64(rejected))
	return r
}
