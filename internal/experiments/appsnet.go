package experiments

// The application-level experiments (Fig 13/14): Memcached, MongoDB and the
// EBS task mix run over a deployment through apps.Net.

import (
	"ufab/internal/apps"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// fig13 runs Memcached against MongoDB background traffic on the testbed
// under each scheme plus the Ideal case (no MongoDB): μFAB keeps QPS and
// tail QCT close to Ideal; the baselines lose ~2.5× QPS and ~20× tail QCT.
func fig13(o Options) *Report {
	r := newReport("fig13", "Memcached under MongoDB background")
	dur := 60 * sim.Millisecond
	mcClients, mcServers := 12, 24
	mdClients, mdServers := 24, 24
	if o.Quick {
		dur = 15 * sim.Millisecond
		mcClients, mcServers = 6, 8
		mdClients, mdServers = 8, 8
	}
	type variant struct {
		name      string
		sc        scheme
		withMongo bool
	}
	variants := []variant{
		{"PicNIC'+WCC+Clove", schemePWC, true},
		{"ES+Clove", schemeES, true},
		{"uFAB", schemeUFAB, true},
		{"Ideal", schemeUFAB, false},
	}
	for _, load := range []struct {
		name   string
		period sim.Duration
	}{{"low", 800 * sim.Microsecond}, {"high", 60 * sim.Microsecond}} {
		for _, v := range variants {
			tb := topo.NewTestbed(topo.TestbedConfig{})
			net := deployPlain(v.sc, o, r, tb.Graph, nil)
			eng := net.eng
			if net.uf != nil {
				// Tenant hoses: Memcached 2G, MongoDB 6G.
				net.uf.AddVF(1, 2e9, 3)
				net.uf.AddVF(2, 6e9, 5)
			}
			mc := apps.NewMemcached(net, apps.MemcachedConfig{
				VF: 1, Tokens: 4,
				Clients: apps.PlaceVMs(tb.Servers[0:4], mcClients),
				Servers: apps.PlaceVMs(tb.Servers[6:8], mcServers),
				Period:  load.period,
				Seed:    o.Seed,
			})
			var md *apps.Mongo
			if v.withMongo {
				md = apps.NewMongo(net, apps.MongoConfig{
					VF: 2, Tokens: 8,
					Clients:     apps.PlaceVMs(tb.Servers[0:4], mdClients),
					Servers:     apps.PlaceVMs(tb.Servers[4:8], mdServers),
					Concurrency: 4,
					Seed:        o.Seed + 1,
				})
			}
			mc.Start()
			if md != nil {
				md.Start()
			}
			eng.RunUntil(dur)
			qps := mc.QPS(eng.Now())
			avg, p90, p99 := mc.QCT.Mean(), mc.QCT.P(0.90), mc.QCT.P(0.99)
			r.Printf("%-4s load %-18s QPS %8.0f  QCT avg %8.1fus p90 %8.1fus p99 %9.1fus",
				load.name, v.name, qps, avg, p90, p99)
			tag := map[string]string{"PicNIC'+WCC+Clove": "pwc", "ES+Clove": "es", "uFAB": "ufab", "Ideal": "ideal"}[v.name]
			r.metric(load.name+"."+tag+".qps", qps)
			r.metric(load.name+"."+tag+".qct_p99_us", p99)
		}
	}
	r.Printf("paper shape: uFAB ≈ Ideal; alternatives ~2.5x lower QPS and ~20x higher tail QCT under high load")
	return r
}

// fig14 runs the EBS task mix under the three schemes with guarantees
// SA 2G / BA 6G / GC 1G and reports average and tail task completion
// times against the converted latency bounds (2 ms average, 10 ms tail).
func fig14(o Options) *Report {
	r := newReport("fig14", "EBS task completion times")
	dur := 80 * sim.Millisecond
	if o.Quick {
		dur = 20 * sim.Millisecond
	}
	// Two pressure levels: the paper's cadence, and an overload where SA
	// offers ~1.3× its guarantee, driving the whole mix past
	// feasibility. Under overload, μFAB confines the damage to the
	// over-demanding tenant (SA queues at its hose) and keeps the 3-way
	// replication bounded near 1 ms p99, while the guarantee-agnostic
	// schemes let the replication incast explode to tens of ms.
	for _, pressure := range []struct {
		name     string
		saPeriod sim.Duration
	}{{"paper", 320 * sim.Microsecond}, {"overload", 200 * sim.Microsecond}} {
		for _, sc := range []scheme{schemePWC, schemeES, schemeUFAB} {
			tb := topo.NewTestbed(topo.TestbedConfig{})
			net := deployPlain(sc, o, r, tb.Graph, nil)
			eng := net.eng
			if net.uf != nil {
				net.uf.AddVF(101, 2e9, 3) // SA
				net.uf.AddVF(102, 6e9, 5) // BA
				net.uf.AddVF(103, 1e9, 2) // GC
			}
			ebs := apps.NewEBS(net, apps.EBSConfig{
				SAHosts:      tb.Servers[0:4],
				StorageHosts: tb.Servers[4:8],
				SATokens:     20, BATokens: 60, GCTokens: 10,
				SAPeriod: pressure.saPeriod,
				GCPeriod: 2 * sim.Millisecond,
				Seed:     o.Seed,
			})
			ebs.Start()
			eng.RunUntil(dur)
			r.Printf("%-5s %-18s SA avg %6.2fms p99 %7.2fms | BA avg %6.2fms p99 %7.2fms | Total avg %6.2fms p99 %7.2fms (n=%d)",
				pressure.name, sc,
				ebs.SATCT.Mean(), ebs.SATCT.P(0.99),
				ebs.BATCT.Mean(), ebs.BATCT.P(0.99),
				ebs.TotalTCT.Mean(), ebs.TotalTCT.P(0.99), ebs.TotalTCT.Len())
			r.metric(pressure.name+"."+metricKey(sc, "total_avg_ms", -1), ebs.TotalTCT.Mean())
			r.metric(pressure.name+"."+metricKey(sc, "total_p99_ms", -1), ebs.TotalTCT.P(0.99))
			r.metric(pressure.name+"."+metricKey(sc, "ba_p99_ms", -1), ebs.BATCT.P(0.99))
		}
	}
	r.Printf("latency bound (converted to 10G): avg ≤ 2 ms, tail ≤ 10 ms; paper: uFAB meets it, 21x/33x shorter tails than PWC/ES")
	return r
}
