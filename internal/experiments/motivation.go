package experiments

// The §2.1 motivation experiments. The paper's Figs 1–3 are production
// measurements from Alibaba's ECS/EBS clusters; per the substitution rule
// they are recreated here with synthetic traffic that reproduces the
// mechanism: short-timescale burst interference under low average load
// (Fig 1), millisecond-granularity bursts inflating storage tails at
// steady utilization (Fig 2), and ECMP hash polarization concentrating
// load on a subset of equivalent uplinks (Fig 3).

import (
	"fmt"

	"ufab/internal/apps"
	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// fig1 runs a latency-sensitive victim next to a periodically bursting
// analytics tenant over the best-effort baseline: average utilization
// stays low while the victim's p99.9 RTT inflates by an order of
// magnitude during burst epochs.
func fig1(o Options) *Report {
	r := newReport("fig1", "ECS motivation (synthetic)")
	epochs := 8
	epoch := 10 * sim.Millisecond
	if o.Quick {
		epochs = 4
		epoch = 4 * sim.Millisecond
	}
	st := topo.NewStar(7, topo.Gbps(10), 5*sim.Microsecond)
	d := deployPlain(schemePWC, o, r, st.Graph, nil)
	eng := d.eng
	victimDst := st.Hosts[6]
	// Victim: a steady 200 Mbps small-message stream host0→host6.
	victim := d.addFlow(1, 200e6, st.Hosts[0], victimDst)
	workload.FixedRate(eng, victim.buf, 200e6, 50*sim.Microsecond)
	// Interferer: the analytics tenant's workers on five hosts shuffle
	// toward the victim's host simultaneously at the start of every
	// other epoch — the synchronized short burst the hourly average
	// never shows.
	var bursters []*flow
	for i := 1; i <= 5; i++ {
		bursters = append(bursters, d.addFlow(2, 200e6, st.Hosts[i], victimDst))
	}
	// Each burster injects ~2% of the epoch at line rate; five arriving
	// at once build a ~1 MB queue that drains for most of a millisecond.
	burstBytes := int64(10e9 * epoch.Seconds() / 8 / 50)
	for e := 0; e < epochs; e++ {
		if e%2 == 1 {
			e := e
			eng.At(sim.Time(e)*epoch, func() {
				for _, b := range bursters {
					b.buf.Add(burstBytes)
				}
			})
		}
	}
	var loads []float64
	var inflations []float64
	downlink := st.Graph.Node(victimDst).Out[0]
	rev := st.Graph.Link(downlink).Reverse
	var prevBytes uint64
	for e := 0; e < epochs; e++ {
		eng.RunUntil(sim.Time(e+1) * epoch)
		var s stats.Samples
		for _, v := range victim.rtt.TakeAll() {
			s.Add(v)
		}
		port := d.net.Port(rev)
		bytes := port.TxBytes - prevBytes
		prevBytes = port.TxBytes
		load := float64(bytes*8) / (10e9 * epoch.Seconds()) * 100
		med, p999 := s.P(0.5), s.P(0.999)
		infl := p999 / med
		loads = append(loads, load)
		inflations = append(inflations, infl)
		r.Printf("epoch %d: load %5.1f%%  victim RTT median %7.1f us  p99.9 %8.1f us  (x%.1f)",
			e, load, med, p999, infl)
	}
	avgLoad, maxInfl := 0.0, 0.0
	for i := range loads {
		avgLoad += loads[i] / float64(len(loads))
		if inflations[i] > maxInfl {
			maxInfl = inflations[i]
		}
	}
	r.Printf("average load %.1f%% yet worst-epoch p99.9/median inflation x%.1f (paper: <10%% load, up to 50x)", avgLoad, maxInfl)
	r.Metric("load.avg_pct", avgLoad)
	r.Metric("rtt.max_tail_inflation", maxInfl)
	return r
}

// fig2 runs the EBS task mix over the best-effort baseline: overall
// utilization is steady and moderate, yet tail task completion time is an
// order of magnitude above the mean because millisecond bursts collide.
func fig2(o Options) *Report {
	r := newReport("fig2", "EBS motivation (synthetic)")
	dur := 80 * sim.Millisecond
	if o.Quick {
		dur = 25 * sim.Millisecond
	}
	st := topo.NewStar(8, topo.Gbps(10), 5*sim.Microsecond)
	net := deployPlain(schemePWC, o, r, st.Graph, nil)
	eng := net.eng
	// Task sizes scaled for ~27% steady fabric load at 10G (the paper's
	// production hosts run faster NICs at the same fractional load).
	ebs := apps.NewEBS(net, apps.EBSConfig{
		SAHosts:      st.Hosts[:4],
		StorageHosts: st.Hosts[4:],
		SATokens:     20, BATokens: 60, GCTokens: 10,
		SASize:   16 << 10,
		GCPeriod: 4 * sim.Millisecond,
		// Infrequent large GC sweeps: the millisecond-granularity burst
		// that coexists with a steady average load.
		GCReadSize: 256 << 10, GCWriteSize: 128 << 10,
		Seed: o.Seed,
	})
	ebs.Start()
	eng.RunUntil(dur)
	// Network load: mean utilization across storage-host downlinks.
	load := 0.0
	for _, h := range st.Hosts[4:] {
		up := st.Graph.Node(h).Out[0]
		load += net.net.LinkUtilization(st.Graph.Link(up).Reverse, eng.Now()) * 100 / 4
	}
	mean, p999 := ebs.TotalTCT.Mean(), ebs.TotalTCT.P(0.999)
	r.Printf("network load %.1f%%; total TCT mean %.2f ms, p99.9 %.2f ms (x%.1f)", load, mean, p999, p999/mean)
	r.Printf("paper shape: steady ~27%% load, tail TCT ~10x average")
	r.Metric("load.pct", load)
	r.Metric("tct.tail_over_mean", p999/mean)
	return r
}

// fig3 reproduces the hash-polarization imbalance: with the same hash
// function at consecutive tiers, an aggregation switch's equivalent
// uplinks settle at a few discrete load levels with some links nearly
// idle; independent per-switch hashing spreads evenly.
func fig3(o Options) *Report {
	r := newReport("fig3", "ECMP hash polarization")
	nCores := 24
	flows := 960
	pkts := 60
	if o.Quick {
		flows = 240
		pkts = 20
	}
	run := func(mode dataplane.ECMPMode) (used int, maxMin float64, agg0Share float64) {
		eng := sim.New()
		g := &topo.Graph{}
		// 2 source ToRs → 2 Aggs → 24 cores → 1 dst ToR → dst host.
		src := g.AddNode(topo.Host, topo.TierHost, "src")
		tor := g.AddNode(topo.Switch, topo.TierToR, "ToR")
		g.AddDuplexLink(src, tor, topo.Gbps(100), sim.Microsecond)
		aggs := []topo.NodeID{
			g.AddNode(topo.Switch, topo.TierAgg, "Agg0"),
			g.AddNode(topo.Switch, topo.TierAgg, "Agg1"),
		}
		var aggLinks [][]topo.LinkID
		dstTor := g.AddNode(topo.Switch, topo.TierToR, "dstToR")
		dst := g.AddNode(topo.Host, topo.TierHost, "dst")
		g.AddDuplexLink(dstTor, dst, topo.Gbps(100), sim.Microsecond)
		for _, a := range aggs {
			g.AddDuplexLink(tor, a, topo.Gbps(100), sim.Microsecond)
			var links []topo.LinkID
			for c := 0; c < nCores; c++ {
				core := g.AddNode(topo.Switch, topo.TierCore, fmt.Sprintf("Core%d", c))
				ab, _ := g.AddDuplexLink(a, core, topo.Gbps(100), sim.Microsecond)
				g.AddDuplexLink(core, dstTor, topo.Gbps(100), sim.Microsecond)
				links = append(links, ab)
			}
			aggLinks = append(aggLinks, links)
		}
		// Routing experiment, not a congestion one: buffers deep enough
		// that the synchronized injection does not tail-drop.
		net := dataplane.New(eng, g, dataplane.Config{
			ECMP: mode, HashSeed: uint64(o.Seed), QueueCapBytes: 1 << 30,
			Telemetry: o.fabricTelemetry(r),
		})
		net.SetHandler(dst, dataplane.HandlerFunc(func(pkt *dataplane.Packet) {}))
		for f := 0; f < flows; f++ {
			for p := 0; p < pkts; p++ {
				pkt := net.NewPacket(src)
				pkt.Kind, pkt.Size = dataplane.Data, 1500
				pkt.VMPair, pkt.Dst = dataplane.VMPair(f+1), dst
				net.SendECMP(pkt, src)
			}
		}
		eng.Run()
		// Load distribution over Agg0's uplinks.
		var loads []float64
		total := 0.0
		for _, l := range aggLinks[0] {
			b := float64(net.Port(l).TxBytes)
			loads = append(loads, b)
			total += b
		}
		min, max := -1.0, 0.0
		for _, b := range loads {
			if b > 0 {
				used++
				if min < 0 || b < min {
					min = b
				}
			}
			if b > max {
				max = b
			}
		}
		if min <= 0 {
			min = 1
		}
		return used, max / min, total
	}
	usedP, ratioP, _ := run(dataplane.Polarized)
	usedI, ratioI, _ := run(dataplane.Independent)
	r.Printf("polarized hash:   %2d/%d uplinks carry traffic, max/min load ratio %.1f", usedP, nCores, ratioP)
	r.Printf("independent hash: %2d/%d uplinks carry traffic, max/min load ratio %.1f", usedI, nCores, ratioI)
	r.Printf("paper shape: production Agg's 24 equivalent uplinks converge to ~6 load levels with 10x spread")
	r.Metric("ecmp.polarized_used", float64(usedP))
	r.Metric("ecmp.independent_used", float64(usedI))
	r.Metric("ecmp.polarized_maxmin", ratioP)
	return r
}
