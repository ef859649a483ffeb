package experiments

// The reconciler experiment: desired-vs-realized convergence under the
// always-on control plane. Standing tenants are admitted through
// ctlplane.Service (which materializes them on the testbed fabric and
// commits them to the sharded ledger), then a chaos node crash and an
// operator drain each displace tenants mid-run; the watcher/reconciler
// must tear down the broken placements and re-place them on healthy
// hosts within its retry budget, with the ledger verifying clean and the
// auditor excusing exactly the fault-windowed disruption.

import (
	"fmt"

	"ufab/internal/chaos"
	"ufab/internal/ctlplane"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// reconcile runs four standing tenants under the reconciling control
// plane, crashes one tenant's host a quarter of the way in (recovering
// it later), and drains another tenant's host at the midpoint. Both
// displacements must converge back to Placed — no evictions — and every
// tenant's guarantee must be realized again by the final stretch.
func reconcile(o Options) *Report {
	r := newReport("reconcile", "reconciler convergence under crash and drain")
	dur := 80 * sim.Millisecond
	cleanup := 5 * sim.Millisecond
	if o.Quick {
		dur = 26 * sim.Millisecond
		cleanup = 3 * sim.Millisecond
	}
	tb := topo.NewTestbed(topo.TestbedConfig{})
	// The watcher is event-driven off the flight recorder, so this
	// experiment always attaches a registry with a recorder to the fabric:
	// the report's own when the run exports telemetry, otherwise a private
	// one that exists only to carry the dataplane fault events. Attaching
	// it never changes results (telemetry is a pure observer), so the
	// golden metrics are identical either way.
	reg := o.fabricTelemetry(r)
	if reg == nil {
		reg = telemetry.New()
		reg.EnableRecorder(0)
	}
	d := deployPlain(schemeUFAB, o, r, tb.Graph, func(c *vfabric.Config) {
		c.Telemetry = reg
		c.Core.CleanupPeriod = cleanup
	})
	eng, uf := d.eng, d.uf
	uf.StartCoreCleanup()

	svc := ctlplane.NewService(tb.Graph, nil, uf, ctlplane.Config{
		SlotsPerHost: 4,
		Policy:       placement.Spread{},
		Telemetry:    o.fabricTelemetry(r),
	})
	svc.WatchRecorder(reg.Recorder())
	// Checked-admit mode: realized Φ_l is audited against the sharded
	// ledger's commitments, exactly as with the sequential ledger.
	uf.Cfg.Ledger = svc.Ledger()
	svc.StartReconciler(eng, 500*sim.Microsecond)

	// Four standing 1G tenants, admitted (and materialized) up front.
	var placed [][]topo.NodeID
	for id := int32(1); id <= 4; id++ {
		d := svc.Admit(placement.Request{
			ID: id, GuaranteeBps: 1e9, VMs: 2, WeightClass: weightClass(1e9),
		}, int64(eng.Now()))
		if !d.Accepted {
			r.Printf("tenant %d REJECTED at admission: %s", id, d.Reason)
		}
		placed = append(placed, d.Hosts)
	}

	// Fault 1: crash tenant 1's first host; the watcher must pick the
	// fault event off the flight recorder and the reconciler evacuate.
	// The host recovers later so the fleet ends whole.
	crashHost := placed[0][0]
	sc := chaos.New("reconciler crash").
		CrashNode(dur/4, crashHost).
		RecoverNode(5*dur/8, crashHost)
	inj := uf.ApplyScenario(sc)

	// Fault 2: an operator drain of one of tenant 2's hosts at the
	// midpoint, uncordoned for the final quarter. Pick a host that the
	// crash does not already take down.
	drainHost := placed[1][0]
	if drainHost == crashHost {
		drainHost = placed[1][1]
	}
	eng.At(dur/2, func() { svc.Drain(drainHost) })
	eng.At(3*dur/4, func() { svc.Uncordon(drainHost) })

	stop := uf.StartSampling(250 * sim.Microsecond)
	eng.RunUntil(dur)
	stop()
	uf.SampleRates()

	// Final-stretch realized rate per standing tenant (re-placed tenants
	// carry fresh flows under the same VF id).
	for id := int32(1); id <= 4; id++ {
		rate := 0.0
		for _, fl := range uf.Flows {
			if fl.VF == uf.VFs[id] {
				rate += fl.Rate(sim.Time(dur-dur/10), sim.Time(dur))
			}
		}
		r.Printf("tenant %d (1G hose): final rate %5.2f G", id, rate/1e9)
		r.metric(fmt.Sprintf("tenant%d.final_gbps", id), rate/1e9)
	}
	st := svc.Stats()
	byStatus := svc.StatusCounts()
	ok := 1.0
	if err := svc.Verify(); err != nil {
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
	r.Printf("reconciler: %d loops, %d displaced, %d re-placed, %d retries, %d evicted; %d/%d placed at end",
		st.ReconcileLoops, st.Displaced, st.Replacements, st.Retries, st.Evictions,
		byStatus[ctlplane.StatusPlaced], st.Desired)
	r.metric("ctl.displaced", float64(st.Displaced))
	r.metric("ctl.replacements", float64(st.Replacements))
	r.metric("ctl.retries", float64(st.Retries))
	r.metric("ctl.evictions", float64(st.Evictions))
	r.metric("ctl.placed_at_end", float64(byStatus[ctlplane.StatusPlaced]))
	r.metric("chaos.applied", float64(inj.Applied(chaos.NodeCrash)+inj.Applied(chaos.NodeRecover)))
	r.metric("ledger.ok", ok)
	return r
}
