package fuzz

import (
	"fmt"
	"math/rand"

	"ufab/internal/chaos"
	"ufab/internal/dataplane"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
)

// Generator ID bands: standing tenants take 1.., churn tenants 100..,
// chaos arrivals 500.. — disjoint so the three populations can never
// collide on a VF id by construction (collisions are still legal input;
// admission rejects them).
const (
	churnFirstID = 100
	chaosFirstID = 500
)

// Generate derives the case for a seed. The same seed always yields the
// byte-identical case: every choice comes from one private seeded RNG,
// consumed in a fixed order.
func Generate(seed int64) *Case {
	rng := stats.NewRand(seed ^ 0x66757a7a) // "fuzz"
	c := &Case{
		Name:      fmt.Sprintf("gen-%d", seed),
		Seed:      seed,
		Topology:  genTopology(rng),
		HorizonPS: sim.Duration(10+rng.Intn(7)) * sim.Millisecond,
	}
	g, err := c.Topology.Build()
	if err != nil {
		panic("fuzz: generated unbuildable topology: " + err.Error())
	}
	hosts := g.Hosts()
	var switches []topo.NodeID
	for _, n := range g.Nodes {
		if n.Kind == topo.Switch {
			switches = append(switches, n.ID)
		}
	}
	// Links between switches: the fault targets. Host access links carry
	// exactly one tenant's hose and make less interesting faults.
	var trunks []topo.LinkID
	for _, l := range g.Links {
		if g.Node(l.Src).Kind == topo.Switch && g.Node(l.Dst).Kind == topo.Switch {
			trunks = append(trunks, l.ID)
		}
	}

	genTenants(rng, c, hosts)
	if rng.Float64() < 0.5 {
		genChurn(rng, c)
	}
	genChaos(rng, c, hosts, switches, trunks)
	return c
}

// genTopology draws a topology small enough for smoke budgets: the
// testbed most often (it is the evaluation's reference fabric), then
// stars, two-tier parallel-path fabrics and a small Clos.
func genTopology(rng *rand.Rand) Topology {
	switch p := rng.Float64(); {
	case p < 0.4:
		return Topology{Kind: "testbed"}
	case p < 0.6:
		return Topology{Kind: "star", Hosts: 4 + rng.Intn(5)}
	case p < 0.8:
		return Topology{Kind: "twotier", Aggs: 2 + rng.Intn(2), Hosts: 2 + rng.Intn(3)}
	default:
		return Topology{Kind: "clos", Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Cores: 2, HostsPerToR: 2}
	}
}

// genTenants draws 2..4 standing tenants. Guarantees stay admissible on
// a 10G fabric on their own; when a draw oversubscribes a link anyway,
// the admission gate bounces that tenant and the run goes on — both
// outcomes are in scope.
func genTenants(rng *rand.Rand, c *Case, hosts []topo.NodeID) {
	guarantees := []float64{5e8, 1e9, 2e9}
	n := 2 + rng.Intn(3)
	for id := 1; id <= n; id++ {
		gbps := guarantees[rng.Intn(len(guarantees))]
		t := Tenant{
			VF:           int32(id),
			GuaranteeBps: gbps,
			WeightClass:  weightClassFor(gbps),
			Workload:     genWorkload(rng, gbps),
		}
		pairs := 1 + rng.Intn(2)
		for p := 0; p < pairs; p++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			t.Pairs = append(t.Pairs, chaos.PairSpec{Src: src, Dst: dst})
		}
		c.Tenants = append(c.Tenants, t)
	}
}

// genWorkload weights toward the backlogged regime (where the hose
// guarantee is actually covered by the auditor) but keeps bounded-demand
// and bursty message traffic in the mix.
func genWorkload(rng *rand.Rand, guaranteeBps float64) Workload {
	switch p := rng.Float64(); {
	case p < 0.45:
		return Workload{Kind: workloadBacklog}
	case p < 0.65:
		return Workload{Kind: workloadFixedRate, RateBps: guaranteeBps * (0.3 + 0.5*rng.Float64())}
	case p < 0.8:
		return Workload{
			Kind:     workloadOnOff,
			RateBps:  guaranteeBps * 0.4,
			PeriodPS: sim.Duration(2+rng.Intn(3)) * sim.Millisecond,
		}
	default:
		dist := "keyvalue"
		if rng.Float64() < 0.5 {
			dist = "websearch"
		}
		return Workload{
			Kind:    workloadPoisson,
			RateBps: guaranteeBps * (0.5 + rng.Float64()),
			Dist:    dist,
		}
	}
}

// genChurn adds an open-loop admission-checked arrival process sized to
// the horizon.
func genChurn(rng *rand.Rand, c *Case) {
	arrivals := 8 + rng.Intn(13)
	c.Churn = &placement.ChurnConfig{
		Arrivals:         arrivals,
		MeanInterarrival: c.HorizonPS / sim.Duration(arrivals),
		MeanHold:         c.HorizonPS / 6,
		VMsMin:           2,
		VMsMax:           3,
		Guarantees:       []float64{5e8, 1e9},
		BacklogBytes:     256 << 10,
		FirstID:          churnFirstID,
		Seed:             c.Seed,
	}
}

// genChaos draws 0..5 fault events. Every fault is transient — the
// matching recover/up/restore lands 0.5–2.5 ms later — and the last
// event fires at least 6 ms before the horizon, so the auditor's
// chaos-excused windows (FaultExcusePS) plus the fabric's re-convergence
// fit inside the run. A fault that the fabric cannot absorb within that
// runway is exactly the kind of finding the fuzzer exists to surface.
func genChaos(rng *rand.Rand, c *Case, hosts []topo.NodeID, switches []topo.NodeID, trunks []topo.LinkID) {
	n := rng.Intn(6)
	if n == 0 {
		return
	}
	sc := chaos.New(fmt.Sprintf("%s-chaos", c.Name))
	lastAt := c.HorizonPS - 6*sim.Millisecond
	if lastAt < 2*sim.Millisecond {
		lastAt = 2 * sim.Millisecond
	}
	at := func() sim.Duration {
		return sim.Millisecond + sim.Duration(rng.Int63n(int64(lastAt-sim.Millisecond)))
	}
	hold := func() sim.Duration {
		return 500*sim.Microsecond + sim.Duration(rng.Int63n(int64(2*sim.Millisecond)))
	}
	arrivals := 0
	for i := 0; i < n; i++ {
		t := at()
		switch k := rng.Intn(5); {
		case k == 0 && len(trunks) > 0:
			lid := trunks[rng.Intn(len(trunks))]
			sc.Flap(t, lid, rng.Intn(2) == 0, 1, 0, hold())
		case k == 1 && len(trunks) > 0:
			lid := trunks[rng.Intn(len(trunks))]
			duplex := rng.Intn(2) == 0
			sc.Degrade(t, lid, duplex, dataplane.Degradation{
				CapacityScale: 0.5 + 0.4*rng.Float64(),
				LossProb:      0.02 * rng.Float64(),
				ProbeDropProb: 0.3 * rng.Float64(),
			})
			sc.Restore(t+hold(), lid, duplex)
		case k == 2:
			node := switches[rng.Intn(len(switches))]
			sc.CrashNode(t, node)
			sc.RecoverNode(t+hold(), node)
		case k == 3:
			sc.RestartAgent(t, switches[rng.Intn(len(switches))])
		default:
			// Admission-gated arrive/depart; ids repeat every other
			// arrival, exercising VF-id reuse through the churn path.
			id := int32(chaosFirstID + arrivals%2)
			arrivals++
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			sc.ArriveTenant(t, chaos.TenantSpec{
				VF: id, GuaranteeBps: 5e8, WeightClass: weightClassFor(5e8),
				Pairs: []chaos.PairSpec{{Src: src, Dst: dst, BacklogBytes: 1 << 20}},
			})
			sc.DepartTenant(t+hold(), id)
		}
	}
	if len(sc.Events) > 0 {
		c.Chaos = sc
	}
}
