package experiments

// Sensitivity and theory-validation experiments: the migration freeze
// window and probing frequency sweeps (Fig 18), the primal/dual reaction
// illustration of Appendix C (Fig 19), and the asynchronous-response
// convergence of Appendix D (Fig 20).

import (
	"strconv"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// fig18 sweeps (a/b) the migration freeze window [1,N] under 50% and 70%
// load, reporting convergence time and migration counts, and (c) the
// probing frequency (self-clocking vs every 2/3 RTTs) in a 16-to-1 incast.
func fig18(o Options) *Report {
	r := newReport("fig18", "freeze window and probing frequency sensitivity")
	// ---- (a)/(b) freeze window under churn ----
	nFlows := 9
	settle := 30 * sim.Millisecond
	if o.Quick {
		settle = 12 * sim.Millisecond
	}
	for _, load := range []struct {
		name      string
		guarantee float64
	}{{"50%", 1.6e9}, {"70%", 2.9e9}} {
		for _, n := range []int{2, 3, 4, 10} {
			tt := topo.NewTwoTier(3, nFlows, topo.Gbps(10), 5*sim.Microsecond)
			d := deployPlain(schemeUFAB, o, r, tt.Graph, func(c *vfabric.Config) { c.Edge.FreezeMaxRTTs = n })
			// Synchronized arrival: all VFs join at once, so initial
			// placements collide and migrations must untangle them —
			// the oscillation risk the freeze window addresses.
			var flows []*flow
			for i := 0; i < nFlows; i++ {
				fl := d.addFlow(int32(i+1), load.guarantee, tt.HostsLeft[i], tt.HostsRight[i])
				fl.backlog()
				flows = append(flows, fl)
			}
			lastInsert := sim.Time(0)
			end := settle
			agg := aggMeter(d.eng, flows, 250*sim.Microsecond)
			d.eng.RunUntil(end)
			agg.Flush(end)
			// Convergence: aggregate goodput within 10% of the fabric's
			// max (3 paths × 9.5 G target) or the total guarantee,
			// whichever is smaller.
			target := 3 * 0.95 * 10e9
			ct := stats.ConvergenceTime(&agg.Series, lastInsert, target, 0.1, 2*sim.Millisecond)
			migrations := 0
			for _, fl := range flows {
				migrations += fl.switches()
			}
			ctStr, ctMs := convergence(ct, sim.Millisecond)
			r.Printf("load %s freeze [1,%2d]: convergence %8s, migrations %3d", load.name, n, ctStr, migrations)
			r.metric("freeze"+strconv.Itoa(n)+"."+sanitize(load.name)+".migrations", float64(migrations))
			r.metric("freeze"+strconv.Itoa(n)+"."+sanitize(load.name)+".conv_ms", ctMs)
		}
	}
	// ---- (c) probing frequency ----
	for _, pf := range []struct {
		name string
		rtts int
	}{{"self-clocking", 0}, {"2 RTT", 2}, {"3 RTT", 3}} {
		st := topo.NewStar(17, topo.Gbps(10), 5*sim.Microsecond)
		d := deployPlain(schemeUFAB, o, r, st.Graph, func(c *vfabric.Config) { c.Edge.PeriodicProbeRTTs = pf.rtts })
		flows := d.incast(st.Hosts[:16], st.Hosts[16], 500e6)
		agg := aggMeter(d.eng, flows, 100*sim.Microsecond)
		dur := 8 * sim.Millisecond
		if o.Quick {
			dur = 4 * sim.Millisecond
		}
		d.eng.RunUntil(dur)
		agg.Flush(dur)
		ctStr, ctUs := convergence(stats.ConvergenceTime(&agg.Series, 0, 0.95*10e9, 0.1, sim.Millisecond), sim.Microsecond)
		r.Printf("probing %-14s: 16-to-1 aggregate convergence %s", pf.name, ctStr)
		if ctUs >= 0 {
			r.metric("probe."+sanitize(pf.name)+".conv_us", ctUs)
		}
	}
	r.Printf("paper shape: [1,10] freeze cuts migrations sharply at 70%% load with similar convergence; probing frequency barely affects convergence")
	return r
}

// fig19 measures the primal control's reaction delay (Appendix C /
// Fig 19a): a steady flow occupies the link; a second flow bursts; the
// incumbent's window/rate must start dropping within a few RTTs.
func fig19(o Options) *Report {
	r := newReport("fig19", "primal control reaction delay")
	st := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
	d := deployPlain(schemeUFAB, o, r, st.Graph, func(c *vfabric.Config) { c.MeterInterval = 25 * sim.Microsecond })
	eng, uf := d.eng, d.uf
	vfA := uf.AddVF(1, 2e9, 3)
	vfB := uf.AddVF(2, 2e9, 3)
	a := uf.AddFlow(vfA, st.Hosts[0], st.Hosts[2], 0)
	a.Buffer.Add(1 << 42)
	burstAt := 4 * sim.Millisecond
	var b *vfabric.Flow
	eng.At(burstAt, func() {
		b = uf.AddFlow(vfB, st.Hosts[1], st.Hosts[2], 0)
		b.Buffer.Add(1 << 42)
	})
	stop := uf.StartSampling(10 * sim.Microsecond)
	eng.RunUntil(8 * sim.Millisecond)
	stop()
	uf.SampleRates()
	pre := a.Rate(3*sim.Millisecond, burstAt)
	// Reaction: first sample after the burst where A's rate fell below
	// 75% of its pre-burst value.
	var reactAt sim.Time = -1
	for _, p := range a.Meter.Series.Pts {
		if p.T <= burstAt {
			continue
		}
		if p.V < 0.75*pre {
			reactAt = p.T
			break
		}
	}
	r.addSeries("incumbent_bps", &a.Meter.Series)
	baseRTT := st.Graph.Diameter(1500)
	if reactAt < 0 {
		r.Printf("incumbent never reacted (pre-burst %.2f G)", pre/1e9)
		r.metric("reaction.rtts", -1)
		return r
	}
	rtts := float64(reactAt-burstAt) / float64(baseRTT)
	r.Printf("incumbent at %.2f G reacted %.1f us after the burst = %.1f baseRTTs (theory: ~2 RTT for the primal/window control, ~4 for dual)",
		pre/1e9, (reactAt - burstAt).Micros(), rtts)
	r.metric("reaction.rtts", rtts)
	return r
}

// fig20 reproduces the Appendix-D asynchronous-response experiment: a
// large incast where senders' probe responses arrive out of sync by more
// than an RTT, yet the allocation still converges quickly.
func fig20(o Options) *Report {
	r := newReport("fig20", "asynchronous responses: large incast convergence")
	n := 128
	dur := 10 * sim.Millisecond
	if o.Quick {
		n = 32
		dur = 5 * sim.Millisecond
	}
	// Heterogeneous propagation delays (0.5–4 μs per host) make the
	// probe responses arrive out of sync across senders, as in the
	// paper's Fig 20a.
	rng := stats.NewRand(o.Seed + 20)
	g := &topo.Graph{}
	sw := g.AddNode(topo.Switch, topo.TierToR, "SW")
	var hosts []topo.NodeID
	for i := 0; i <= n; i++ {
		h := g.AddNode(topo.Host, topo.TierHost, "H"+strconv.Itoa(i))
		prop := sim.Duration(500+rng.Intn(3500)) * sim.Nanosecond
		if i == n {
			prop = sim.Microsecond
		}
		g.AddDuplexLink(h, sw, topo.Gbps(100), prop)
		hosts = append(hosts, h)
	}
	d := deployPlain(schemeUFAB, o, r, g, nil)
	flows := d.incast(hosts[:n], hosts[n], 500e6)
	agg := aggMeter(d.eng, flows, 100*sim.Microsecond)
	// Background load is implicit: the incast itself saturates the
	// downlink, and senders' self-clocked probes desynchronize.
	d.eng.RunUntil(dur)
	agg.Flush(dur)
	ct := stats.ConvergenceTime(&agg.Series, 0, 0.95*100e9, 0.1, sim.Millisecond)
	// Response asynchrony: spread of median RTT across senders.
	var meds stats.Samples
	for _, fh := range flows {
		meds.Add(fh.rtt.P(0.5))
	}
	spread := meds.Max() - meds.Min()
	baseRTT := g.Diameter(1500).Micros()
	ctStr, ctUs := convergence(ct, sim.Microsecond)
	r.Printf("%d-to-1: per-sender median RTT spread %.1f us (baseRTT %.1f us) — responses are asynchronous", n, spread, baseRTT)
	r.Printf("aggregate convergence to 95%% of line rate: %s", ctStr)
	r.metric("conv.us", ctUs)
	r.metric("rtt.spread_us", spread)
	r.Printf("paper shape: senders receive responses out of sync by >1 RTT yet rates converge quickly (Fig 20b)")
	return r
}
