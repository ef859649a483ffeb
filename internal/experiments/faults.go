package experiments

// The failure suite: fault-injection experiments built on internal/chaos.
// Where fig15 crashes one core once, these experiments exercise the rest
// of the fault surface — link flaps, gray (partial) degradation with
// probe loss/corruption, μFAB-C agent restarts with register state loss,
// and tenant churn storms — and pin the resulting metrics in
// golden_metrics.json, so predictability-under-failure is a regression-
// gated property rather than a one-off demonstration.

import (
	"ufab/internal/chaos"
	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// linkBetween returns the directional link a→b, or topo.NoLink.
func linkBetween(g *topo.Graph, a, b topo.NodeID) topo.LinkID {
	for _, lid := range g.Node(a).Out {
		if g.Link(lid).Dst == b {
			return lid
		}
	}
	return topo.NoLink
}

// faultRig is the shared fixture of the failure suite: the Fig-10 testbed
// with a cross-pod incast (four 2G tenants sending S1..S4 → S8, paths
// through the core) plus one intra-ToR control tenant (S5 → S6) whose
// 2-hop path no core-tier fault can touch.
type faultRig struct {
	eng    *sim.Engine
	tb     *topo.Testbed
	uf     *vfabric.Fabric
	flows  []*vfabric.Flow // the four incast flows
	ctrl   *vfabric.Flow
	gbps   float64 // per-tenant guarantee
	report *Report
}

func newFaultRig(o Options, r *Report, mutate func(*vfabric.Config)) *faultRig {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	d := deployPlain(schemeUFAB, o, r, tb.Graph, mutate)
	uf := d.uf
	rig := &faultRig{eng: d.eng, tb: tb, uf: uf, gbps: 2e9, report: r}
	for i := 0; i < 4; i++ {
		vf := uf.AddVF(int32(i+1), rig.gbps, weightClass(rig.gbps))
		fl := uf.AddFlow(vf, tb.Servers[i], tb.Servers[7], 0)
		fl.Buffer.Add(1 << 42)
		rig.flows = append(rig.flows, fl)
	}
	cvf := uf.AddVF(9, rig.gbps, weightClass(rig.gbps))
	rig.ctrl = uf.AddFlow(cvf, tb.Servers[4], tb.Servers[5], 0)
	rig.ctrl.Buffer.Add(1 << 42)
	return rig
}

// run drives the rig to the horizon and reports the standard fault
// metrics: guarantees kept over the final 10%, migration telemetry, and
// the dataplane fault counters.
func (rig *faultRig) run(dur sim.Duration) {
	stop := rig.uf.StartSampling(250 * sim.Microsecond)
	rig.eng.RunUntil(dur)
	stop()
	rig.uf.SampleRates()
	r := rig.report
	satisfied := 0
	for i, fl := range rig.flows {
		rate := fl.Rate(dur-dur/10, dur)
		ok := rate >= 0.9*rig.gbps
		if ok {
			satisfied++
		}
		r.Printf("VF-%d (%.0fG): final rate %5.2f G, migrations %d, guarantee kept: %v",
			i+1, rig.gbps/1e9, rate/1e9, fl.Pair.Migrations, ok)
	}
	ctrlRate := rig.ctrl.Rate(dur-dur/10, dur)
	r.Printf("control VF-9 (intra-ToR): final rate %5.2f G", ctrlRate/1e9)
	fs := rig.uf.FaultStats()
	r.metric("guarantee.satisfied", float64(satisfied))
	r.metric("ctrl.gbps", ctrlRate/1e9)
	r.metric("faults.migrations", float64(fs.Migrations))
	r.metric("faults.freezes_armed", float64(fs.FreezesArmed))
	r.metric("faults.freeze_suppressed", float64(fs.FreezeSuppressed))
	r.metric("faults.drops", float64(fs.FaultDrops))
}

// logInjections appends the injection log to the report.
func (rig *faultRig) logInjections(inj *chaos.Injector) {
	for _, rec := range inj.Log {
		rig.report.Printf("chaos: %s", rec)
	}
}

// auditSummary reports the auditor's verdict on a chaos run and carries
// the scenario's excused-findings floor into the log so gates can assert
// the injected damage was actually observed. Counts go to report lines,
// not metrics: the golden baselines pin audit-off runs.
func (rig *faultRig) auditSummary(sc *chaos.Scenario) {
	r := rig.report
	if r.Findings == nil {
		return
	}
	if sc != nil && sc.ExpectExcusedMin > r.Findings.ExpectExcusedMin {
		r.Findings.ExpectExcusedMin = sc.ExpectExcusedMin
	}
	r.Printf("audit: %d excused / %d unexcused finding(s), expect >= %d excused",
		r.Findings.Excused(), r.Findings.Unexcused(), r.Findings.ExpectExcusedMin)
}

// faultFlap flaps one agg→core link (both directions) under the incast:
// every affected pair must detect the dark path — via bounced type-4
// failure responses — migrate off it within RTTs, and keep its guarantee;
// the intra-ToR control tenant must not notice.
func faultFlap(o Options) *Report {
	r := newReport("flap", "link-flap incast")
	dur := 80 * sim.Millisecond
	start := 20 * sim.Millisecond
	period := 16 * sim.Millisecond
	down := 4 * sim.Millisecond
	cycles := 3
	if o.Quick {
		dur = 24 * sim.Millisecond
		start = 6 * sim.Millisecond
		period = 6 * sim.Millisecond
		down = 2 * sim.Millisecond
		cycles = 2
	}
	rig := newFaultRig(o, r, nil)
	lid := linkBetween(rig.tb.Graph, rig.tb.Aggs[0], rig.tb.Cores[0])
	sc := chaos.New("link-flap").Flap(start, lid, true, cycles, period, down)
	inj := rig.uf.ApplyScenario(sc)
	rig.run(dur)
	rig.logInjections(inj)
	rig.auditSummary(sc)
	r.metric("chaos.flaps_applied", float64(inj.Applied(chaos.LinkDown)))
	r.Printf("flapped Agg1→Core1 duplex ×%d (down %v every %v)", cycles, down, period)
	return r
}

// faultGray degrades one agg→core link without taking it down: quarter
// capacity, added latency, random loss, and probe drop/corruption. BFD
// sees nothing, so recovery must come from μFAB's own telemetry — probe
// timeouts and violation-triggered migration. After Restore the fabric
// settles back.
func faultGray(o Options) *Report {
	r := newReport("gray", "gray core link")
	dur := 80 * sim.Millisecond
	grayAt := 20 * sim.Millisecond
	healAt := 60 * sim.Millisecond
	if o.Quick {
		dur = 24 * sim.Millisecond
		grayAt = 6 * sim.Millisecond
		healAt = 18 * sim.Millisecond
	}
	rig := newFaultRig(o, r, nil)
	lid := linkBetween(rig.tb.Graph, rig.tb.Aggs[0], rig.tb.Cores[0])
	deg := dataplane.Degradation{
		CapacityScale:    0.25,
		ExtraDelay:       30 * sim.Microsecond,
		LossProb:         0.005,
		ProbeDropProb:    0.2,
		ProbeCorruptProb: 0.2,
	}
	sc := chaos.New("gray-core-link").
		Degrade(grayAt, lid, true, deg).
		Restore(healAt, lid, true)
	if o.Quick {
		// On the short horizon the gray window reaches into the final
		// stretch and one tenant's min-BW dip lands inside the restore's
		// excuse window — the auditor must observe (and excuse) it. The
		// full horizon leaves enough runway that recovery completes and
		// the run audits entirely clean.
		sc.ExpectExcused(1)
	}
	inj := rig.uf.ApplyScenario(sc)
	rig.run(dur)
	rig.logInjections(inj)
	rig.auditSummary(sc)
	fs := rig.uf.FaultStats()
	r.metric("faults.corrupted_probes", float64(fs.CorruptedProbes))
	r.metric("chaos.degrades_applied", float64(inj.Applied(chaos.LinkDegrade)))
	r.Printf("gray window [%v, %v): cap×%.2f, +%v, loss %.1f%%, probe drop/corrupt %.0f%%/%.0f%%",
		grayAt, healAt, deg.CapacityScale, deg.ExtraDelay, deg.LossProb*100,
		deg.ProbeDropProb*100, deg.ProbeCorruptProb*100)
	return r
}

// faultRestart reboots every μFAB-C agent on the switch tier mid-run,
// wiping the Bloom tables and the Φ_l/W_l registers, with the silent-quit
// cleanup loop running at an aggressive period. The registers must
// rebuild from in-flight re-registration within RTTs — without
// double-counting — and no guarantee may be lost.
func faultRestart(o Options) *Report {
	r := newReport("restart", "uFAB-C restart and register rebuild")
	dur := 80 * sim.Millisecond
	restartAt := 40 * sim.Millisecond
	cleanup := 4 * sim.Millisecond
	if o.Quick {
		dur = 24 * sim.Millisecond
		restartAt = 12 * sim.Millisecond
		cleanup = 2 * sim.Millisecond
	}
	rig := newFaultRig(o, r, func(cfg *vfabric.Config) {
		cfg.Core.CleanupPeriod = cleanup
	})
	rig.uf.StartCoreCleanup()
	// Restart both cores and one aggregation switch.
	sc := chaos.New("core-restarts").
		RestartAgent(restartAt, rig.tb.Cores[0]).
		RestartAgent(restartAt, rig.tb.Cores[1]).
		RestartAgent(restartAt, rig.tb.Aggs[0])
	inj := rig.uf.ApplyScenario(sc)
	// Observe Φ on S8's ToR downlink (every incast pair registers there)
	// just before the restart, just after, and at the end of the run.
	tor := rig.tb.ToRs[3] // S8 = Servers[7] attaches to the last ToR
	downlink := linkBetween(rig.tb.Graph, tor, rig.tb.Servers[7])
	torRestartAt := restartAt + cleanup
	scTor := chaos.New("tor-restart").RestartAgent(torRestartAt, tor)
	injTor := rig.uf.ApplyScenario(scTor)
	var phiBefore, phiAfter, phiRebuilt float64
	rig.eng.At(torRestartAt-1, func() { phiBefore, _ = rig.uf.Cores[tor].Subscription(downlink) })
	rig.eng.At(torRestartAt+1, func() { phiAfter, _ = rig.uf.Cores[tor].Subscription(downlink) })
	rig.run(dur)
	phiRebuilt, _ = rig.uf.Cores[tor].Subscription(downlink)
	rig.logInjections(inj)
	rig.logInjections(injTor)
	rig.auditSummary(sc)
	fs := rig.uf.FaultStats()
	r.Printf("ToR4→S8 Φ register: %.2f tokens before restart, %.2f after wipe, %.2f rebuilt at end",
		phiBefore, phiAfter, phiRebuilt)
	r.metric("faults.core_restarts", float64(fs.CoreRestarts))
	r.metric("phi.before", phiBefore)
	r.metric("phi.after_wipe", phiAfter)
	r.metric("phi.rebuilt", phiRebuilt)
	return r
}

// faultChurn fires a storm of short-lived tenants — arriving, sending
// hard, departing, with VF ids reused across waves — against the standing
// incast. Guarantees of the stable tenants must hold throughout, and
// after the storm the core registers must return to baseline (finish
// probes plus silent-quit cleanup, no residue or double-counting). Two
// deliberately invalid events check that rejections are logged, not
// crashed on.
func faultChurn(o Options) *Report {
	r := newReport("churn", "tenant churn storm")
	dur := 80 * sim.Millisecond
	start := 10 * sim.Millisecond
	step := 4 * sim.Millisecond
	hold := 6 * sim.Millisecond
	waves := 12
	cleanup := 5 * sim.Millisecond
	if o.Quick {
		dur = 26 * sim.Millisecond
		start = 4 * sim.Millisecond
		step = 2 * sim.Millisecond
		hold = 3 * sim.Millisecond
		waves = 6
		cleanup = 3 * sim.Millisecond
	}
	rig := newFaultRig(o, r, func(cfg *vfabric.Config) {
		cfg.Core.CleanupPeriod = cleanup
	})
	rig.uf.StartCoreCleanup()
	sc := chaos.New("churn-storm")
	for i := 0; i < waves; i++ {
		at := start + sim.Duration(i)*step
		vfID := int32(100 + i%3) // ids reused across waves
		src := rig.tb.Servers[i%4]
		dst := rig.tb.Servers[4+i%3]
		sc.ArriveTenant(at, chaos.TenantSpec{
			VF:           vfID,
			GuaranteeBps: 1e9,
			WeightClass:  weightClass(1e9),
			Pairs:        []chaos.PairSpec{{Src: src, Dst: dst}},
		})
		sc.DepartTenant(at+hold, vfID)
	}
	// Invalid events: an arrival on a switch node and a departure of a
	// VF that never existed. Both must be rejected and logged.
	sc.ArriveTenant(start, chaos.TenantSpec{
		VF: 200, GuaranteeBps: 1e9,
		Pairs: []chaos.PairSpec{{Src: rig.tb.Cores[0], Dst: rig.tb.Servers[0]}},
	})
	sc.DepartTenant(start, 201)
	inj := rig.uf.ApplyScenario(sc)
	rig.run(dur)
	rig.logInjections(inj)
	rig.auditSummary(sc)
	// Register residue on S8's ToR downlink: only the four stable incast
	// pairs should remain registered after the storm drains.
	tor := rig.tb.ToRs[3]
	downlink := linkBetween(rig.tb.Graph, tor, rig.tb.Servers[7])
	phiResidue, _ := rig.uf.Cores[tor].Subscription(downlink)
	r.Printf("S8 downlink Φ after storm: %.2f tokens (stable incast only)", phiResidue)
	r.metric("chaos.arrivals", float64(inj.Applied(chaos.TenantArrive)))
	r.metric("chaos.departures", float64(inj.Applied(chaos.TenantDepart)))
	r.metric("chaos.rejected", float64(inj.Rejected()))
	r.metric("phi.residue", phiResidue)
	return r
}

// chaosLab runs the standard rig under a user-scripted scenario: pass
// `ufabsim -scenario file.json run chaoslab` to replay any fault schedule
// against the incast workload. With no scenario it runs a built-in
// sampler touching every event kind, which is what the golden baseline
// pins.
func chaosLab(o Options) *Report {
	r := newReport("chaoslab", "scripted chaos scenario")
	dur := 80 * sim.Millisecond
	if o.Quick {
		dur = 24 * sim.Millisecond
	}
	rig := newFaultRig(o, r, func(cfg *vfabric.Config) {
		cfg.Core.CleanupPeriod = dur / 8
	})
	rig.uf.StartCoreCleanup()
	var sc *chaos.Scenario
	if o.Scenario != "" {
		var err error
		sc, err = chaos.Parse([]byte(o.Scenario))
		if err != nil {
			r.Printf("scenario rejected: %v", err)
			r.metric("chaos.events_applied", 0)
			r.metric("chaos.events_rejected", 0)
			return r
		}
		r.Printf("replaying scenario %q (%d events)", sc.Name, len(sc.Events))
	} else {
		u := dur / 24 // scenario time unit, scales with the horizon
		lid := linkBetween(rig.tb.Graph, rig.tb.Aggs[1], rig.tb.Cores[1])
		sc = chaos.New("builtin-sampler").
			LinkDown(4*u, lid, true).
			LinkUp(6*u, lid, true).
			Degrade(8*u, lid, true, dataplane.Degradation{CapacityScale: 0.5, LossProb: 0.002}).
			Restore(12*u, lid, true).
			RestartAgent(14*u, rig.tb.Cores[1]).
			ArriveTenant(16*u, chaos.TenantSpec{
				VF: 50, GuaranteeBps: 1e9, WeightClass: weightClass(1e9),
				Pairs: []chaos.PairSpec{{Src: rig.tb.Servers[5], Dst: rig.tb.Servers[6]}},
			}).
			DepartTenant(20*u, 50).
			CrashNode(21*u, rig.tb.Cores[0]).
			RecoverNode(22*u, rig.tb.Cores[0])
	}
	inj := rig.uf.ApplyScenario(sc)
	rig.run(dur)
	rig.logInjections(inj)
	rig.auditSummary(sc)
	applied := 0
	for _, rec := range inj.Log {
		if rec.OK {
			applied++
		}
	}
	r.metric("chaos.events_applied", float64(applied))
	r.metric("chaos.events_rejected", float64(inj.Rejected()))
	return r
}
