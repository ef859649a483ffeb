// Package ufab's root benchmark harness: one testing.B sub-benchmark per
// entry of experiments.All — every table and figure of the paper's
// evaluation, the fault and placement suites, the fuzzer slice. Each runs
// its experiment at bench scale (Options.Quick) and reports the headline
// numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in one pass and
// `-bench 'Experiment/fig12$'` one figure. For full-scale runs use
// cmd/ufabsim; for measured performance (end-to-end workloads and
// per-layer costs, with repetitions and a host descriptor) use bench/.
package ufab

import (
	"testing"

	"ufab/internal/experiments"
)

// BenchmarkExperiment executes each experiment once per benchmark iteration
// and reports its metrics on the last iteration.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				rep = e.Run(experiments.Options{Quick: true, Seed: 1})
			}
			m := rep.Metrics()
			for _, name := range rep.MetricNames() {
				b.ReportMetric(m[name], name)
			}
		})
	}
}
