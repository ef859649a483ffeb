package experiments

import (
	"testing"

	"ufab/internal/audit"
	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// TestPlaceChurnAuditClean: every tenant of the placechurn experiment
// goes through checked admission, so the audited run — including the
// ledger_bound invariant against the controller's commitments — must be
// spotless across seeds.
func TestPlaceChurnAuditClean(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		ids := auditIDs // the audited determinism gate's sequential cells
		if seed == 3 {
			ids = []string{"placechurn"} // no other test audits seed 3
		}
		r := batch(t, ids, Options{Quick: true, Seed: seed, Audit: true}, 1)["placechurn"]
		if n := r.Findings.Unexcused(); n != 0 {
			for _, f := range r.Findings.Findings() {
				t.Logf("seed %d: %s %s observed %.3g bound %.3g %s excused=%v",
					seed, f.Kind, f.Entity, f.Observed, f.Bound, f.Unit, f.Excused)
			}
			t.Fatalf("seed %d: %d unexcused finding(s) in checked-admit churn", seed, n)
		}
	}
}

// oversubRun materializes six 2G incast tenants (S1..S6 → S8, Σ = 12G
// against the 10G bottleneck) on an audited testbed. With checked=false
// every spec is force-admitted straight into the fabric; with
// checked=true each spec must first pass the admission controller at
// factor 0.8 (8G budget → four tenants). Returns the audit log and how
// many tenants reached the data plane.
func oversubRun(t *testing.T, checked bool) (*audit.Log, int) {
	t.Helper()
	o := Options{Quick: true, Seed: 1, Audit: true}
	r := newReport("test", "oversubscription probe")
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	cfg := vfabric.Config{Seed: o.Seed, Telemetry: o.fabricTelemetry(r), Audit: o.fabricAudit(r)}
	uf := vfabric.New(eng, tb.Graph, cfg)
	var ctl *placement.Controller
	if checked {
		ctl = placement.NewController(eng, tb.Graph, nil, placement.Config{Oversubscription: 0.8})
		uf.Cfg.Ledger = ctl.Ledger()
	}
	materialized := 0
	for i := 0; i < 6; i++ {
		spec := chaos.TenantSpec{
			VF: int32(i + 1), GuaranteeBps: 2e9, WeightClass: weightClass(2e9),
			Pairs: []chaos.PairSpec{{Src: tb.Servers[i], Dst: tb.Servers[7]}},
		}
		if checked && !ctl.AdmitSpec(spec) {
			continue
		}
		if !uf.AddTenant(spec) {
			t.Fatalf("tenant %d spec invalid", i+1)
		}
		materialized++
	}
	stop := uf.StartSampling(250 * sim.Microsecond)
	eng.RunUntil(20 * sim.Millisecond)
	stop()
	uf.SampleRates()
	return r.Findings, materialized
}

// TestForceAdmitOversubscriptionFlagged is the knob the suite documents:
// force-admitting guarantees past line rate must surface as unexcused
// min_bw findings, while routing the same specs through checked
// admission keeps the committed subscription honest and the run clean.
func TestForceAdmitOversubscriptionFlagged(t *testing.T) {
	forced, n := oversubRun(t, false)
	if n != 6 {
		t.Fatalf("force-admit materialized %d tenants, want all 6", n)
	}
	minBW := 0
	for _, f := range forced.Findings() {
		if f.Kind == audit.MinBWViolation && !f.Excused {
			minBW++
		}
	}
	if minBW == 0 {
		t.Fatalf("force-admitted 12G over a 10G bottleneck produced no unexcused min_bw finding (%d findings total)",
			len(forced.Findings()))
	}

	gated, n := oversubRun(t, true)
	if n != 4 {
		t.Fatalf("checked admission materialized %d tenants, want 4 (8G budget / 2G hoses)", n)
	}
	if un := gated.Unexcused(); un != 0 {
		for _, f := range gated.Findings() {
			t.Logf("%s %s observed %.3g bound %.3g %s", f.Kind, f.Entity, f.Observed, f.Bound, f.Unit)
		}
		t.Fatalf("checked-admit run has %d unexcused finding(s)", un)
	}
}

// TestScenarioBogusEndpointRejected: a scenario file is outside input. A
// TenantArrive whose pair names a node outside the graph must be turned
// away by checked admission (logged admission-reject) and the run must
// carry on to the next event — not die indexing the graph.
func TestScenarioBogusEndpointRejected(t *testing.T) {
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	uf := vfabric.New(eng, tb.Graph, vfabric.Config{Seed: 1})
	ctl := placement.NewController(eng, tb.Graph, uf, placement.Config{})
	uf.Cfg.Ledger = ctl.Ledger()
	sc := chaos.New("bogus endpoint").
		ArriveTenant(sim.Millisecond, chaos.TenantSpec{
			VF: 1, GuaranteeBps: 1e9,
			Pairs: []chaos.PairSpec{{Src: tb.Servers[0], Dst: 9999}},
		}).
		ArriveTenant(2*sim.Millisecond, chaos.TenantSpec{
			VF: 2, GuaranteeBps: 1e9,
			Pairs: []chaos.PairSpec{{Src: tb.Servers[0], Dst: tb.Servers[5], BacklogBytes: 1 << 16}},
		})
	inj := uf.ApplyScenario(sc).WithAdmission(ctl)
	eng.RunUntil(3 * sim.Millisecond)
	if len(inj.Log) != 2 {
		t.Fatalf("injection log has %d records, want 2: %v", len(inj.Log), inj.Log)
	}
	if inj.Log[0].OK || inj.Log[0].Note != "admission-reject" {
		t.Fatalf("bogus arrival logged as %v, want an admission-reject", inj.Log[0])
	}
	if !inj.Log[1].OK {
		t.Fatalf("the arrival after the bogus one did not materialize: %v", inj.Log[1])
	}
	if st := ctl.Stats(); st.Admitted != 1 || st.Rejected != 1 || st.Active != 1 {
		t.Fatalf("controller stats %+v", st)
	}
	if err := ctl.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
}
