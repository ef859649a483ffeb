package experiments

// The large-scale simulations of §5.5: the 90-to-1 highly dynamic
// workload (Fig 16) and the real-workload sweep over oversubscription and
// load (Fig 17). The paper runs these in NS3 on a 512-server 100G
// FatTree; here the same scenarios run on this repository's simulator,
// scaled to topologies whose event counts a unit-test budget tolerates
// (the comparative shape is preserved; see DESIGN.md).

import (
	"fmt"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// fig16 runs the 90-to-1 on/off workload: every sender alternates between
// a 500 Mbps trickle and unlimited demand every 4 ms. μFAB converges to
// the new allocation within the phase; PWC overshoots then under-utilizes;
// ES recovers bandwidth fast but at high latency.
func fig16(o Options) *Report {
	r := newReport("fig16", "90-to-1 dynamic on/off workload")
	n := 90
	dur := 32 * sim.Millisecond
	if o.Quick {
		n = 60
		dur = 12 * sim.Millisecond
	}
	period := 4 * sim.Millisecond
	for _, sc := range []scheme{schemePWC, schemeES, schemeUFABPrime, schemeUFAB} {
		st := topo.NewStar(n+1, topo.Gbps(100), 2*sim.Microsecond)
		d := deploy(sc, o, r, st.Graph)
		eng := d.eng
		var flows []*flow
		for i := 0; i < n; i++ {
			fh := d.addFlow(int32(i+1), 1e9, st.Hosts[i], st.Hosts[n])
			flows = append(flows, fh)
			workload.OnOff(eng, fh.buf, 500e6, period, 50<<20)
		}
		agg := aggMeter(eng, flows, 100*sim.Microsecond)
		eng.RunUntil(dur)
		agg.Flush(dur)
		r.addSeries(metricKey(sc, "agg_bps", -1), &agg.Series)
		// Utilization during the unlimited phases (odd periods).
		var unlimited, under stats.Samples
		for _, p := range agg.Series.Pts {
			phase := int(p.T / period)
			if phase%2 == 1 {
				unlimited.Add(p.V)
			} else if p.T > period/2 {
				under.Add(p.V)
			}
		}
		rtt := poolRTT(flows, 0.5, 0.99, 1)
		r.Printf("%-18s unlimited-phase rate %6.1f G (target 95) | underload %5.1f G | RTT p99≈%8.1fus max %9.1fus",
			sc, unlimited.Mean()/1e9, under.Mean()/1e9, rtt.P(0.9), rtt.Max())
		r.metric(metricKey(sc, "unlimited_gbps", -1), unlimited.Mean()/1e9)
		r.metric(metricKey(sc, "rtt_max_us", -1), rtt.Max())
	}
	r.Printf("paper shape: PWC overshoots then under-utilizes; ES recovers but with high latency; uFAB converges with max RTT ~27x below PWC")
	return r
}

// fig17Config is one (oversubscription, load) cell of Fig 17.
type fig17Config struct {
	name   string
	clos   topo.ClosConfig
	load   float64
	hostsG float64 // per-host line rate
}

// fig17 sweeps oversubscription (1:2 vs 1:1) and average load (0.5, 0.7)
// with the empirical heavy-tailed flow size distribution: bandwidth
// dissatisfaction, tail RTT, and FCT slowdown (with a size breakdown at
// 1:1 / load 0.7).
func fig17(o Options) *Report {
	r := newReport("fig17", "real workload sweep")
	pods := 4
	dur := 30 * sim.Millisecond
	if o.Quick {
		pods = 2
		dur = 10 * sim.Millisecond
	}
	clos12 := topo.ClosConfig{Pods: pods, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4,
		HostsPerToR: 4, LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond}
	clos11 := topo.ClosConfig{Pods: pods, ToRsPerPod: 2, AggsPerPod: 4, Cores: 8,
		HostsPerToR: 4, LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond}
	cells := []fig17Config{
		{"1:2 load 0.5", clos12, 0.5, 10e9},
		{"1:2 load 0.7", clos12, 0.7, 10e9},
		{"1:1 load 0.5", clos11, 0.5, 10e9},
		{"1:1 load 0.7", clos11, 0.7, 10e9},
	}
	if o.Quick {
		cells = cells[1:3]
	}
	const pairsPerHost = 3
	for _, cell := range cells {
		// Permutation destinations keep every host's ingress hose equal
		// to its egress hose, and guarantee = offered load per pair —
		// the Silo-feasibility the paper enforces ("we make sure the
		// minimum bandwidth of all VFs can be theoretically satisfied").
		hostsRng := stats.NewRand(o.Seed + 13)
		nHosts := 0
		{
			cl := topo.NewClos(cell.clos)
			nHosts = len(cl.Hosts)
		}
		offsets := make([]int, pairsPerHost)
		for k := range offsets {
			offsets[k] = 1 + hostsRng.Intn(nHosts-1)
		}
		for _, sc := range []scheme{schemePWC, schemeES, schemeUFAB} {
			cl := topo.NewClos(cell.clos)
			d := deploy(sc, o, r, cl.Graph)
			eng := d.eng
			dist := workload.WebSearch()
			type pairState struct {
				msgs      *workload.Messages
				guarantee float64
				offered   int64
				fh        *flow
				// Per-pair slowdown accumulators: completion callbacks run
				// in the source host's shard, so each pair writes only its
				// own samples and the run-wide aggregation happens after
				// the horizon, in pair order.
				slow stats.Samples
				bins map[string]*stats.Samples
			}
			var pairs []*pairState
			var slow, rttAgg stats.Samples
			binsAvg := map[string]*stats.Samples{}
			vfID := int32(0)
			perPairLoad := cell.load * cell.hostsG / pairsPerHost
			for hi, src := range cl.Hosts {
				for k := 0; k < pairsPerHost; k++ {
					dst := cl.Hosts[(hi+offsets[k])%len(cl.Hosts)]
					vfID++
					guarantee := perPairLoad
					msgs, fh := d.addMessageFlow(vfID, guarantee, src, dst)
					// Flows are independent entities sharing the pair's
					// allocation, not a FIFO behind one another.
					msgs.Sharing = true
					ps := &pairState{msgs: msgs, guarantee: guarantee, fh: fh,
						bins: map[string]*stats.Samples{}}
					pairs = append(pairs, ps)
					msgs.Observe(func(m workload.Message, fct sim.Duration) {
						sd := stats.Slowdown(fct, int(m.Size), guarantee)
						ps.slow.Add(sd)
						bin := sizeBin(m.Size)
						if ps.bins[bin] == nil {
							ps.bins[bin] = &stats.Samples{}
						}
						ps.bins[bin].Add(sd)
					})
					stopArrivals := workload.Poisson(eng, stats.NewRand(o.Seed+int64(vfID)), dist, perPairLoad,
						func(size int64, now sim.Time) {
							ps.offered += size
							msgs.Send(size, now)
						})
					// Arrivals stop at 75% of the horizon so in-flight
					// messages can drain before dissatisfaction is read.
					eng.At(dur*3/4, stopArrivals)
				}
			}
			eng.RunUntil(dur)
			d.mergeTenantFCT()
			for _, ps := range pairs {
				slow.AddAll(&ps.slow)
				for bin, s := range ps.bins {
					if binsAvg[bin] == nil {
						binsAvg[bin] = &stats.Samples{}
					}
					binsAvg[bin].AddAll(s)
				}
			}
			// Dissatisfaction: owed = min(offered rate, guarantee).
			cutoff := (dur * 3 / 4).Seconds()
			var achieved, owed, demand []float64
			for _, ps := range pairs {
				achieved = append(achieved, float64(*ps.fh.delivered*8)/cutoff)
				owed = append(owed, ps.guarantee)
				demand = append(demand, float64(ps.offered*8)/cutoff)
			}
			dissat := stats.Dissatisfaction(achieved, owed, demand) * 100
			for _, ps := range pairs {
				if ps.fh.rtt.Len() > 0 {
					rttAgg.Add(ps.fh.rtt.P(0.99))
				}
			}
			r.Printf("%-12s %-18s dissat %5.1f%%  p99RTT %8.1fus  slowdown avg %6.2f p99 %8.2f (n=%d)",
				cell.name, sc, dissat, rttAgg.P(0.99), slow.Mean(), slow.P(0.99), slow.Len())
			tag := fmt.Sprintf("%s.%s", metricKey(sc, "dissat_pct", -1), sanitize(cell.name))
			r.metric(tag, dissat)
			r.metric(fmt.Sprintf("%s.%s", metricKey(sc, "slow_p99", -1), sanitize(cell.name)), slow.P(0.99))
			if cell.name == "1:1 load 0.7" || (o.Quick && cell.name == "1:1 load 0.5") {
				for _, bin := range []string{"<10K", "10-100K", "100K-1M", ">1M"} {
					if s := binsAvg[bin]; s != nil {
						r.Printf("    %-12s size %-8s slowdown avg %6.2f p99 %8.2f (n=%d)",
							sc, bin, s.Mean(), s.P(0.99), s.Len())
					}
				}
			}
		}
	}
	r.Printf("paper shape: uFAB far lower dissatisfaction and slowdown, especially at 0.7 load; ES beats PWC on dissatisfaction but pays tail RTT")
	return r
}

func sizeBin(size int64) string {
	switch {
	case size < 10_000:
		return "<10K"
	case size < 100_000:
		return "10-100K"
	case size < 1_000_000:
		return "100K-1M"
	default:
		return ">1M"
	}
}

// sanitize flattens a display name into one dot-free token, usable both
// as a segment of a dotted metric name and in a CSV filename.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == ':' || c == '.':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
