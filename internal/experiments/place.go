package experiments

// The control-plane suite: tenant admission control, VM placement and
// large-scale churn built on internal/placement. Where the fault suite
// injects damage into a fixed tenant set, these experiments exercise the
// path by which tenants come to exist at all — hose-model subscription
// accounting, per-link headroom checks, and placement policy — and pin
// the resulting accept ratios, decision latencies and subscription peaks
// in golden_metrics.json.

import (
	"fmt"

	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// placeClos is the control-plane suite's large fabric: a 3-tier Clos with
// 32 hosts in 8 racks (the same shape the ledger property test churns).
func placeClos() *topo.Clos {
	return topo.NewClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
}

// placeCompare drives the identical open-loop request sequence through
// each placement policy (ledger-only: admission decisions without
// materialized traffic) and compares accept ratio, bottleneck
// subscription and time-to-admit. The fleet is sized so the arrival
// process contends for both host slots and link headroom — the regime
// where policy choice matters.
func placeCompare(o Options) *Report {
	r := newReport("placecmp", "placement-policy comparison")
	arrivals := 2000
	if o.Quick {
		arrivals = 400
	}
	cc := placement.ChurnConfig{
		Arrivals:         arrivals,
		MeanInterarrival: 10 * sim.Microsecond,
		MeanHold:         400 * sim.Microsecond,
		Guarantees:       []float64{5e8, 1e9, 2e9},
		Seed:             o.Seed,
	}
	for _, name := range []string{"first-fit", "spread", "subscription-aware"} {
		eng := sim.New()
		cl := placeClos()
		ctl := placement.NewController(eng, cl.Graph, nil, placement.Config{
			Policy:       placement.PolicyByName(name),
			SlotsPerHost: 4,
		})
		st := placement.Churn(ctl, cc)
		eng.Run()
		st.Finish(ctl)
		ok := 1.0
		if err := ctl.Ledger().Verify(); err != nil {
			ok = 0
			r.Printf("%s: ledger verify FAILED: %v", name, err)
		}
		r.Printf("%-18s accept %5.1f%%  peak-sub %.3f  peak-tenants %3d  admit %6.1f µs  (headroom %d, placement %d)",
			name, 100*st.AcceptRatio(), st.PeakMaxSubscription, st.PeakTenants,
			st.TimeToAdmit.Mean(), st.RejectedBy["headroom"], st.RejectedBy["placement"])
		r.metric(name+".accept_ratio", st.AcceptRatio())
		r.metric(name+".peak_subscription", st.PeakMaxSubscription)
		r.metric(name+".admit_us", st.TimeToAdmit.Mean())
		r.metric(name+".ledger_ok", ok)
	}
	return r
}

// placeChurn runs admission-checked churn against a real fabric: every
// tenant — two standing 2G tenants, an open-loop churn population, and a
// chaos scenario's arrivals — is admitted through the controller, which
// materializes accepted specs as VFs and VM-pairs on the testbed. The
// controller's ledger is wired into the fabric's auditor (the
// ledger_bound invariant: realized Φ_l never exceeds the committed
// subscription), and one deliberately oversubscribed chaos arrival must
// bounce off the admission gate instead of reaching the data plane.
func placeChurn(o Options) *Report {
	r := newReport("placechurn", "admission-checked churn on the testbed")
	dur := 80 * sim.Millisecond
	arrivals := 60
	cleanup := 5 * sim.Millisecond
	if o.Quick {
		dur = 26 * sim.Millisecond
		arrivals = 24
		cleanup = 3 * sim.Millisecond
	}
	tb := topo.NewTestbed(topo.TestbedConfig{})
	d := deployPlain(schemeUFAB, o, r, tb.Graph, func(c *vfabric.Config) { c.Core.CleanupPeriod = cleanup })
	eng, uf := d.eng, d.uf
	uf.StartCoreCleanup()
	ctl := placement.NewController(eng, tb.Graph, uf, placement.Config{
		Policy:    placement.Spread{},
		Telemetry: o.fabricTelemetry(r),
	})
	// Checked-admit mode: the auditor can now hold realized subscription
	// against the control plane's commitments.
	uf.Cfg.Ledger = ctl.Ledger()

	// Two standing tenants submitted through the same controller as
	// everything else; their guarantees must hold through the churn.
	var standing []placement.Decision
	for id := int32(1); id <= 2; id++ {
		ctl.Submit(placement.Request{
			ID: id, GuaranteeBps: 2e9, VMs: 2, WeightClass: weightClass(2e9),
		}, func(d placement.Decision) { standing = append(standing, d) })
	}

	// Open-loop churn: short-lived tenants with finite bursts.
	st := placement.Churn(ctl, placement.ChurnConfig{
		Arrivals:         arrivals,
		MeanInterarrival: dur / sim.Duration(arrivals),
		MeanHold:         dur / 8,
		Guarantees:       []float64{5e8, 1e9},
		VMsMin:           2,
		VMsMax:           3,
		BacklogBytes:     256 << 10,
		FirstID:          100,
		Seed:             o.Seed,
	})

	// A chaos scenario routed through the admission gate: one valid
	// explicitly-placed arrival (admitted, then departs) and one 20G hose
	// no testbed link can honor — admission must reject it before the
	// data plane ever sees it.
	sc := chaos.New("admission-gated churn").
		ArriveTenant(dur/4, chaos.TenantSpec{
			VF: 300, GuaranteeBps: 1e9, WeightClass: weightClass(1e9),
			Pairs: []chaos.PairSpec{{Src: tb.Servers[4], Dst: tb.Servers[6], BacklogBytes: 1 << 20}},
		}).
		DepartTenant(dur/2, 300).
		ArriveTenant(dur/3, chaos.TenantSpec{
			VF: 301, GuaranteeBps: 20e9,
			Pairs: []chaos.PairSpec{{Src: tb.Servers[0], Dst: tb.Servers[7]}},
		})
	inj := uf.ApplyScenario(sc).WithAdmission(ctl)

	stop := uf.StartSampling(250 * sim.Microsecond)
	eng.RunUntil(dur)
	stop()
	uf.SampleRates()
	st.Finish(ctl)

	for i, d := range standing {
		if !d.Accepted {
			r.Printf("standing tenant %d REJECTED: %s", i+1, d.Reason)
		}
	}
	// Final-stretch rate of the standing tenants' pairs (one chain pair
	// per 2-VM tenant).
	for id := int32(1); id <= 2; id++ {
		rate := 0.0
		for _, fl := range uf.Flows {
			if fl.VF == uf.VFs[id] {
				rate += fl.Rate(sim.Time(dur-dur/10), sim.Time(dur))
			}
		}
		r.Printf("standing VF-%d (2G hose): final rate %5.2f G", id, rate/1e9)
		r.metric(fmt.Sprintf("standing.vf%d_gbps", id), rate/1e9)
	}
	cs := ctl.Stats()
	ok := 1.0
	if err := ctl.Ledger().Verify(); err != nil {
		ok = 0
		r.Printf("ledger verify FAILED: %v", err)
	}
	for _, rec := range inj.Log {
		r.Printf("chaos: %s", rec)
	}
	if r.Findings != nil {
		r.Printf("audit: %d excused / %d unexcused finding(s)",
			r.Findings.Excused(), r.Findings.Unexcused())
	}
	r.Printf("controller: %d submitted, %d admitted, %d rejected, %d released, %d active at end",
		cs.Submitted, cs.Admitted, cs.Rejected, cs.Released, cs.Active)
	r.metric("churn.accept_ratio", st.AcceptRatio())
	r.metric("churn.peak_subscription", st.PeakMaxSubscription)
	r.metric("ctl.admitted", float64(cs.Admitted))
	r.metric("ctl.rejected", float64(cs.Rejected))
	r.metric("ctl.active", float64(cs.Active))
	r.metric("chaos.arrivals", float64(inj.Applied(chaos.TenantArrive)))
	r.metric("chaos.admission_rejects", float64(inj.Rejected()))
	r.metric("ledger.ok", ok)
	return r
}

// placeSweep sweeps the admission controller's oversubscription factor
// under heavy load (holds ≫ interarrival, ledger-only): factor 1.0 is
// the paper's predictability precondition — committed subscription never
// exceeds line rate — and each step above it trades admission yield for
// committed risk. The sweep pins the shape of that trade-off.
func placeSweep(o Options) *Report {
	r := newReport("placesweep", "oversubscription sweep")
	arrivals := 1500
	if o.Quick {
		arrivals = 300
	}
	for _, factor := range []float64{1.0, 1.5, 2.0, 3.0} {
		eng := sim.New()
		cl := placeClos()
		ctl := placement.NewController(eng, cl.Graph, nil, placement.Config{
			Oversubscription: factor,
			SlotsPerHost:     16, // slot-rich: link headroom is the binding constraint
		})
		st := placement.Churn(ctl, placement.ChurnConfig{
			Arrivals:         arrivals,
			MeanInterarrival: 5 * sim.Microsecond,
			MeanHold:         2 * sim.Millisecond,
			Guarantees:       []float64{2e9},
			VMsMin:           2,
			VMsMax:           3,
			Seed:             o.Seed,
		})
		eng.Run()
		st.Finish(ctl)
		key := fmt.Sprintf("oversub.%.0f", 100*factor)
		r.Printf("factor %.2f: accept %5.1f%%  peak-sub %.3f  (headroom %d, placement %d)",
			factor, 100*st.AcceptRatio(), st.PeakMaxSubscription,
			st.RejectedBy["headroom"], st.RejectedBy["placement"])
		r.metric(key+".accept_ratio", st.AcceptRatio())
		r.metric(key+".peak_subscription", st.PeakMaxSubscription)
	}
	return r
}
