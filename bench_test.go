// Package ufab's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation. Each benchmark runs the
// corresponding experiment at bench scale (Options.Quick) and reports the
// figure's headline numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in one pass. For full-scale runs use
// cmd/ufabsim; for measured performance (end-to-end workloads and
// per-layer costs, with repetitions and a host descriptor) use bench/.
package ufab

import (
	"testing"

	"ufab/internal/experiments"
)

// runExperiment executes the experiment once per benchmark iteration and
// reports its metrics on the last iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = e.Run(experiments.Options{Quick: true, Seed: 1})
	}
	m := rep.Metrics()
	for _, name := range rep.MetricNames() {
		b.ReportMetric(m[name], name)
	}
}

// BenchmarkFig01ECSMotivation — bursty interference inflates tail RTT at
// low average load (Fig 1).
func BenchmarkFig01ECSMotivation(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig02EBSMotivation — storage tail TCT under steady moderate
// load (Fig 2).
func BenchmarkFig02EBSMotivation(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig03HashPolarization — ECMP load imbalance across equivalent
// uplinks (Fig 3).
func BenchmarkFig03HashPolarization(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig04IncastCDF — Case-1 incast RTT vs degree (Fig 4).
func BenchmarkFig04IncastCDF(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig05PathMigration — Case-2 guarantee-breaking migration
// (Fig 5).
func BenchmarkFig05PathMigration(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig11BandwidthEvolution — guarantees + work conservation under
// churn (Fig 11).
func BenchmarkFig11BandwidthEvolution(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12IncastBounded — 14-to-1 incast convergence and bounded
// latency (Fig 12).
func BenchmarkFig12IncastBounded(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13Memcached — Memcached QPS/QCT under MongoDB background
// (Fig 13).
func BenchmarkFig13Memcached(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14EBS — EBS task completion times (Fig 14).
func BenchmarkFig14EBS(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15HundredGE — 100GE predictability and probing overhead
// (Fig 15).
func BenchmarkFig15HundredGE(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16DynamicWorkload — 90-to-1 on/off dynamics (Fig 16).
func BenchmarkFig16DynamicWorkload(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17RealWorkload — oversubscription × load sweep with
// empirical flow sizes (Fig 17).
func BenchmarkFig17RealWorkload(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig18Sensitivity — freeze window and probing frequency
// (Fig 18).
func BenchmarkFig18Sensitivity(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkFig19ControlLaws — primal-control reaction delay (Fig 19 /
// Appendix C).
func BenchmarkFig19ControlLaws(b *testing.B) { runExperiment(b, "fig19") }

// BenchmarkFig20AsyncResponses — convergence under heterogeneous response
// delays (Fig 20 / Appendix D).
func BenchmarkFig20AsyncResponses(b *testing.B) { runExperiment(b, "fig20") }

// BenchmarkTable3EdgeResources — μFAB-E FPGA resource model (Table 3).
func BenchmarkTable3EdgeResources(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkTable4CoreResources — μFAB-C switch resource model (Table 4).
func BenchmarkTable4CoreResources(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkAblations — design-choice ablations (two-stage admission, GP,
// migration, L_w) from DESIGN.md.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "abl") }
