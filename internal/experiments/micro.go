package experiments

// The micro-benchmarks of §2.2 and §5.2: Case-1 incast latency (Fig 4),
// Case-2 guarantee-breaking path migration (Fig 5), bandwidth guarantee
// with work conservation under continuous VF churn (Fig 11), and the
// 14-to-1 incast convergence/latency comparison (Fig 12).

import (
	"fmt"
	"strconv"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// fig4 reproduces Case-1: N flows of different VFs (500 Mbps guarantees)
// incast on one host; PWC's tail RTT grows with N while μFAB's stays
// bounded.
func fig4(o Options) *Report {
	r := newReport("fig4", "Case-1 incast RTT vs degree")
	degrees := []int{2, 6, 10, 14}
	dur := 30 * sim.Millisecond
	if o.Quick {
		degrees = []int{2, 6, 10}
		dur = 8 * sim.Millisecond
	}
	base := 0.0
	for _, sc := range []scheme{schemePWC, schemeUFAB} {
		for _, n := range degrees {
			st := topo.NewStar(n+1, topo.Gbps(10), 5*sim.Microsecond)
			d := deploy(sc, o, r, st.Graph)
			flows := d.incast(st.Hosts[:n], st.Hosts[n], 500e6)
			d.eng.RunUntil(dur)
			// Pool per-flow samples via quantile resampling into the
			// figure's CDF.
			all := poolRTT(flows, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 0.999, 1)
			p50, p999 := all.P(0.3), all.Max()
			if base == 0 {
				base = st.Graph.Diameter(1500).Micros()
			}
			cdf := all.CDF(5)
			cdfStr := ""
			for _, pt := range cdf {
				cdfStr += fmt.Sprintf(" %.0f%%≤%.0fus", pt.F*100, pt.X)
			}
			r.Printf("%-18s %2d-to-1: RTT p50 ≈ %7.1f us, tail ≈ %8.1f us | CDF:%s",
				sc, n, p50, p999, cdfStr)
			r.Metric(metricKey(sc, "tail_us", n), p999)
		}
	}
	r.Printf("baseRTT %.1f us; latency bound ≈ %.0f us (3·BDP/C + baseRTT)", base, 5*base)
	m := r.Metrics()
	pwcGrowth := m[metricKey(schemePWC, "tail_us", degrees[len(degrees)-1])] /
		m[metricKey(schemePWC, "tail_us", degrees[0])]
	ufabGrowth := m[metricKey(schemeUFAB, "tail_us", degrees[len(degrees)-1])] /
		m[metricKey(schemeUFAB, "tail_us", degrees[0])]
	r.Printf("tail growth with incast degree: PWC %.1fx vs uFAB %.1fx (paper: PWC unbounded, uFAB bounded)",
		pwcGrowth, ufabGrowth)
	r.Metric("pwc.tail_growth", pwcGrowth)
	r.Metric("ufab.tail_growth", ufabGrowth)
	return r
}

// metricKey names a scheme's metric under the dotted scheme:
// <scheme>.<what>[.<n>].
func metricKey(sc scheme, what string, n int) string {
	name := map[scheme]string{
		schemeUFAB: "ufab", schemeUFABPrime: "ufabp", schemePWC: "pwc", schemeES: "es",
	}[sc]
	if n >= 0 {
		return name + "." + what + "." + strconv.Itoa(n)
	}
	return name + "." + what
}

// fig5Result is one Case-2 run: the four VFs' rates in the final window,
// their sampled rate series, and F4's observed path-switch count.
type fig5Result struct {
	rates    [4]float64 // Gbps in final window
	switches int
	series   [4]*stats.Series
}

// fig5 reproduces Case-2: F1/F2/F3 pinned on paths P1/P2/P3 with
// subscriptions 90/80/40% and utilizations 80/90/100%; F4 (3G) joins at
// t=100 ms. Utilization-oriented load balancing sends F4 to P1 and breaks
// F1's guarantee (or oscillates at small flowlet gaps); μFAB reads the
// subscription and picks P3.
func fig5(o Options) *Report {
	r := newReport("fig5", "Case-2 path selection vs guarantees")
	joinAt := 100 * sim.Millisecond
	dur := 400 * sim.Millisecond
	if o.Quick {
		joinAt = 20 * sim.Millisecond
		dur = 80 * sim.Millisecond
	}
	guarantees := [4]float64{9e9, 8e9, 4e9, 3e9}
	run := func(sc scheme) fig5Result {
		tt := topo.NewTwoTier(3, 4, topo.Gbps(10), 5*sim.Microsecond)
		d := deployPlain(sc, o, r, tt.Graph, nil)
		// Per-flow routes: F1..F3 pinned to P1..P3; F4 sees all three.
		var flows [4]*flow
		addFlow := func(i int) {
			routes := tt.Graph.Paths(tt.HostsLeft[i], tt.HostsRight[i], 0)
			if i < 3 {
				routes = routes[i : i+1]
			}
			flows[i] = d.addFlowRoutes(int32(i+1), guarantees[i], routes)
		}
		for i := 0; i < 3; i++ {
			addFlow(i)
		}
		// F1 has insufficient demand (8G of its 9G guarantee: P1 at 80%
		// utilization); F2 and F3 are backlogged (work conservation).
		workload.FixedRate(d.eng, flows[0].buf, 8e9, 50*sim.Microsecond)
		flows[1].backlog()
		flows[2].backlog()
		d.eng.At(joinAt, func() {
			addFlow(3)
			flows[3].backlog()
		})
		d.startSampling(200 * sim.Microsecond)
		d.eng.RunUntil(dur)
		d.sampleRates()
		res := fig5Result{switches: flows[3].switches()}
		for i, f := range flows {
			res.rates[i] = f.rate(dur-dur/8, dur) / 1e9
			res.series[i] = &f.meter.Series
		}
		return res
	}
	for _, v := range []struct {
		name, key string
		sc        scheme
	}{
		{"PWC (200us gap)", "pwc200", schemePWC},
		{"PWC (36us gap)", "pwc36", schemePWCGap36},
		{"uFAB", "ufab", schemeUFAB},
	} {
		res := run(v.sc)
		ok := 0
		for i := range res.rates {
			// F1's demand is 8G; others owe their full guarantee.
			owed := guarantees[i] / 1e9
			if i == 0 {
				owed = 8
			}
			if res.rates[i] >= 0.9*owed {
				ok++
			}
		}
		r.Printf("%-18s F1=%.2fG(owes 8) F2=%.2fG(8) F3=%.2fG(4) F4=%.2fG(3); satisfied %d/4; F4 path switches %d",
			v.name, res.rates[0], res.rates[1], res.rates[2], res.rates[3], ok, res.switches)
		r.Metric(v.key+".satisfied", float64(ok))
		r.Metric(v.key+".switches", float64(res.switches))
		for i, ser := range res.series {
			r.AddSeries(v.key+"_F"+strconv.Itoa(i+1)+"_bps", ser)
		}
	}
	r.Printf("paper shape: PWC leaves guarantees unsatisfied (200us pins F4 on P1; 36us oscillates); uFAB close to ideal")
	return r
}

// fig11 reproduces the permutation churn experiment: three VF classes
// (1/2/5 Gbps) per sending host, one VF inserted every 20 ms; μFAB
// converges fast with near-zero dissatisfaction and low queues, PWC
// under-delivers guarantees, ES keeps guarantees but builds queues.
func fig11(o Options) *Report {
	r := newReport("fig11", "bandwidth evolution under high load")
	insertEvery := 20 * sim.Millisecond
	tail := 60 * sim.Millisecond
	if o.Quick {
		insertEvery = 4 * sim.Millisecond
		tail = 16 * sim.Millisecond
	}
	classes := []float64{1e9, 2e9, 5e9}
	for _, sc := range []scheme{schemeUFAB, schemePWC, schemeES} {
		tb := topo.NewTestbed(topo.TestbedConfig{})
		d := deploy(sc, o, r, tb.Graph)
		eng := d.eng
		type vfFlow struct {
			fh        *flow
			guarantee float64
			start     sim.Time
		}
		var flows []*vfFlow
		// 4 senders (pod 1) × 3 classes = 12 VFs, destinations are the
		// pod-2 servers (permutation).
		id := int32(0)
		var inserts []func()
		for ci, g := range classes {
			for h := 0; h < 4; h++ {
				g, h, ci := g, h, ci
				id++
				vfID := id
				inserts = append(inserts, func() {
					fh := d.addFlow(vfID, g, tb.Servers[h], tb.Servers[4+(h+ci)%4])
					fh.backlog()
					flows = append(flows, &vfFlow{fh: fh, guarantee: g, start: eng.Now()})
				})
			}
		}
		// Deterministic shuffled insertion order.
		rng := stats.NewRand(o.Seed + 11)
		rng.Shuffle(len(inserts), func(i, j int) { inserts[i], inserts[j] = inserts[j], inserts[i] })
		for i, ins := range inserts {
			eng.At(sim.Time(i)*insertEvery, ins)
		}
		stopSampling := d.startSampling(500 * sim.Microsecond)
		end := sim.Time(len(inserts))*insertEvery + tail
		eng.RunUntil(end)
		stopSampling()
		d.sampleRates()
		// Steady-state dissatisfaction over the final window.
		var achieved, owed []float64
		for i, f := range flows {
			achieved = append(achieved, f.fh.rate(end-tail/2, end))
			owed = append(owed, f.guarantee)
			r.AddSeries(metricKey(sc, "vf"+strconv.Itoa(i)+"_bps", -1), &f.fh.meter.Series)
		}
		dissat := stats.Dissatisfaction(achieved, owed, nil)
		qhw := d.queueHighWaters()
		maxQ := qhw.Max()
		r.Printf("%-18s dissatisfaction(final)=%5.1f%%  max queue=%6.0f KB  q-p90=%6.0f KB",
			sc, dissat*100, maxQ/1e3, qhw.P(0.9)/1e3)
		for _, g := range classes {
			sum, n := 0.0, 0
			for _, f := range flows {
				if f.guarantee == g {
					sum += f.fh.rate(end-tail/2, end)
					n++
				}
			}
			r.Printf("    class %dG: avg rate %.2f G (n=%d)", int(g/1e9), sum/float64(n)/1e9, n)
		}
		r.Metric(metricKey(sc, "dissat_pct", -1), dissat*100)
		r.Metric(metricKey(sc, "maxq_kb", -1), maxQ/1e3)
	}
	r.Printf("paper shape: uFAB ~0%% dissatisfaction with low queue; PWC >40%% dissatisfaction; ES low dissatisfaction but deep queues")
	return r
}

// fig12 reproduces the 14-to-1 incast with all four schemes: μFAB and
// μFAB′ converge in well under a millisecond; μFAB additionally bounds the
// tail RTT; the baselines converge slowly with high tails.
func fig12(o Options) *Report {
	r := newReport("fig12", "14-to-1 incast: convergence and bounded latency")
	n := 14
	dur := 40 * sim.Millisecond
	if o.Quick {
		n = 8
		dur = 10 * sim.Millisecond
	}
	for _, sc := range []scheme{schemePWC, schemeES, schemeUFABPrime, schemeUFAB} {
		st := topo.NewStar(n+1, topo.Gbps(10), 5*sim.Microsecond)
		d := deploy(sc, o, r, st.Graph)
		flows := d.incast(st.Hosts[:n], st.Hosts[n], 500e6)
		agg := aggMeter(d.eng, flows, 100*sim.Microsecond)
		stop := d.startSampling(200 * sim.Microsecond)
		d.eng.RunUntil(dur)
		stop()
		d.sampleRates()
		agg.Flush(dur)
		r.AddSeries(metricKey(sc, "agg_bps", -1), &agg.Series)
		// Convergence: aggregate goodput within 10% of the 95% target
		// for 1 ms, and per-flow fairness within 25% at the end.
		worst := stats.ConvergenceTime(&agg.Series, 0, 0.95*10e9, 0.1, sim.Millisecond)
		fair := 0.95 * 10e9 / float64(n)
		fairOK := 0
		for _, fh := range flows {
			rate := fh.rate(dur-dur/4, dur)
			if rate > 0.75*fair && rate < 1.25*fair {
				fairOK++
			}
		}
		rttAll := poolRTT(flows, 0.5, 0.9, 0.99, 1)
		baseRTT := st.Graph.Diameter(1500).Micros()
		bound := 5 * baseRTT // 3·BDP inflight + baseRTT ≈ 4–5 baseRTTs
		conv, convUs := convergence(worst, sim.Microsecond)
		r.Printf("%-18s convergence=%9s fair %2d/%2d  RTT p50≈%7.1fus max≈%8.1fus  (bound %.0fus)",
			sc, conv, fairOK, n, rttAll.P(0.25), rttAll.Max(), bound)
		r.Metric(metricKey(sc, "conv_us", -1), convUs)
		r.Metric(metricKey(sc, "rtt_max_us", -1), rttAll.Max())
	}
	r.Printf("paper shape: uFAB/uFAB' react fast; baselines 99p RTT ~ms; uFAB bounds the tail, uFAB' cuts it ~11x vs baselines")
	return r
}
