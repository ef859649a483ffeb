package experiments

// Hardware-oriented experiments: Fig 15 (100GE predictability with
// failure; probing overhead) and the Tables 3/4 resource models.

import (
	"strconv"
	"strings"

	"ufab/internal/chaos"
	"ufab/internal/probe"
	"ufab/internal/resmodel"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// fig15 runs (a) seven VFs with staggered entry on the 100GE testbed,
// failing Core1 mid-run — μFAB keeps guarantees, migrates the victims and
// holds a near-zero queue; and (b) the probing-overhead scaling: with
// self-clocked probes every L_w = 4 KB, overhead is bounded by
// L_p/(L_p+L_w) regardless of the number of VM-pairs.
func fig15(o Options) *Report {
	r := newReport("fig15", "100GE predictability and probing overhead")
	enterEvery := 10 * sim.Millisecond
	failAt := 90 * sim.Millisecond
	dur := 120 * sim.Millisecond
	if o.Quick {
		enterEvery = 2 * sim.Millisecond
		failAt = 18 * sim.Millisecond
		dur = 26 * sim.Millisecond
	}
	// ---- (a) predictability under churn and failure ----
	tb := topo.NewTestbed(topo.TestbedConfig{LinkCapacity: topo.Gbps(100)})
	d := deployPlain(schemeUFAB, o, r, tb.Graph, nil)
	eng, uf := d.eng, d.uf
	guarantees := []float64{5e9, 5e9, 5e9, 10e9, 10e9, 10e9, 15e9}
	var flows []*vfabric.Flow
	for i, g := range guarantees {
		i, g := i, g
		eng.At(sim.Time(i)*enterEvery, func() {
			vf := uf.AddVF(int32(i+1), g, weightClass(g))
			fl := uf.AddFlow(vf, tb.Servers[i], tb.Servers[7], 0)
			fl.Buffer.Add(1 << 44)
			flows = append(flows, fl)
		})
	}
	// The Core1 crash is expressed as a chaos scenario: one NodeCrash
	// event at failAt, injected at setup so the event time is absolute.
	inj := uf.ApplyScenario(chaos.New("fig15-core1-crash").CrashNode(sim.Duration(failAt), tb.Cores[0]))
	stop := uf.StartSampling(250 * sim.Microsecond)
	eng.RunUntil(dur)
	stop()
	uf.SampleRates()
	satisfied := 0
	migrations := 0
	for i, fl := range flows {
		r.AddSeries("vf"+strconv.Itoa(i+1)+"_bps", &fl.Meter.Series)
		rate := fl.Rate(dur-dur/10, dur)
		ok := rate >= 0.9*guarantees[i]
		if ok {
			satisfied++
		}
		migrations += fl.Pair.Migrations
		r.Printf("VF-%d (%2.0fG): final rate %6.2f G, migrations %d, guarantee kept: %v",
			i+1, guarantees[i]/1e9, rate/1e9, fl.Pair.Migrations, ok)
	}
	bdp := 100e9 * tb.Graph.Diameter(1500).Seconds() / 8
	maxQ := float64(uf.MaxQueueBytes())
	r.Printf("after Core1 failure at %v: %d/%d guarantees kept, %d total migrations, max queue %.0f KB (3BDP = %.0f KB)",
		failAt, satisfied, len(flows), migrations, maxQ/1e3, 3*bdp/1e3)
	r.Metric("guarantee.satisfied", float64(satisfied))
	r.Metric("faults.migrations", float64(migrations))
	r.Metric("queue.maxq_over_3bdp", maxQ/(3*bdp))
	for _, rec := range inj.Log {
		r.Printf("chaos: %s", rec)
	}
	r.Metric("chaos.node_crashes", float64(inj.Applied(chaos.NodeCrash)))

	// ---- (b) probing overhead vs number of VM-pairs ----
	lw := int64(4096)
	counts := []int{1, 10, 100, 1000}
	if o.Quick {
		counts = []int{1, 10, 100}
	}
	for _, n := range counts {
		st := topo.NewStar(2, topo.Gbps(100), 2*sim.Microsecond)
		d2 := deployPlain(schemeUFAB, o, r, st.Graph, func(c *vfabric.Config) { c.Edge.ProbePayloadBytes = lw })
		eng2, uf2 := d2.eng, d2.uf
		vf := uf2.AddVF(1, 50e9, 6)
		for i := 0; i < n; i++ {
			fl := uf2.AddFlow(vf, st.Hosts[0], st.Hosts[1], 0)
			fl.Buffer.Add(1 << 40)
		}
		horizon := 4 * sim.Millisecond
		if o.Quick {
			horizon = 2 * sim.Millisecond
		}
		eng2.RunUntil(horizon)
		ovh := uf2.ProbeOverhead() * 100
		r.Printf("probing overhead with %4d VM-pairs: %.3f%%", n, ovh)
		r.Metric("probe.overhead_pct."+strconv.Itoa(n), ovh)
	}
	lp := float64(probe.WireSize(3))
	bound := lp / (lp + float64(lw)) * 100
	r.Printf("analytic bound L_p/(L_p+L_w) = %.2f%% (paper: 1.28%% with their L_p); overhead flattens with VM-pair count", bound)
	r.Metric("probe.overhead_bound_pct", bound)
	return r
}

// table3 prints the μFAB-E FPGA resource model at the paper's prototype
// scale (8K VM-pairs, 1K tenants).
func table3(o Options) *Report {
	r := newReport("tab3", "uFAB-E FPGA resource consumption (model)")
	rows := resmodel.EdgeTable(resmodel.EdgeConfig{VMPairs: 8192, Tenants: 1024})
	r.Lines = append(r.Lines, tableLines(resmodel.FormatEdgeTable(rows))...)
	total := rows[len(rows)-1]
	r.Metric("fpga.total_lut_pct", total.LUT)
	r.Metric("fpga.total_bram_pct", total.BRAM)
	r.Metric("fpga.total_uram_pct", total.URAM)
	r.Printf("paper Table 3 totals: LUT 7.6%%, Registers 5.8%%, BRAM 16.4%%, URAM 9.5%%")
	return r
}

// table4 prints the μFAB-C switch resource model for 20K/40K/80K VM-pairs.
func table4(o Options) *Report {
	r := newReport("tab4", "uFAB-C switch resource consumption (model)")
	cols := resmodel.CoreTable(nil)
	r.Lines = append(r.Lines, tableLines(resmodel.FormatCoreTable(cols))...)
	for _, c := range cols {
		r.Metric("switch.sram_pct."+strconv.Itoa(c.VMPairs/1000)+"k", c.SRAM)
	}
	r.Printf("paper Table 4 SRAM: 17.29%% / 17.71%% / 18.75%% — only the active-pair table scales")
	return r
}

// tableLines splits a formatted table into its non-empty lines.
func tableLines(table string) []string {
	return strings.FieldsFunc(table, func(c rune) bool { return c == '\n' })
}
