package experiments

// Ablations of μFAB's design choices (DESIGN.md): the two-stage admission
// burst bound, the Guarantee Partitioning token loop, path migration, and
// the probing payload L_w. Each ablation removes one mechanism and
// measures the quantity that mechanism exists to protect.

import (
	"strconv"

	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/ufabe"
	"ufab/internal/vfabric"
)

// ablations runs the four ablations and reports what breaks.
func ablations(o Options) *Report {
	r := newReport("abl", "design ablations")
	dur := 10 * sim.Millisecond
	n := 12
	if o.Quick {
		dur = 5 * sim.Millisecond
		n = 8
	}

	// ---- (a) two-stage admission: max RTT in a synchronized incast ----
	incast := func(mutate func(*vfabric.Config)) (maxRTT float64, maxQ int, overhead float64) {
		st := topo.NewStar(n+1, topo.Gbps(10), 5*sim.Microsecond)
		d := deployPlain(schemeUFAB, o, r, st.Graph, mutate)
		flows := d.incast(st.Hosts[:n], st.Hosts[n], 500e6)
		d.eng.RunUntil(dur)
		return poolRTT(flows, 1).Max(), d.uf.MaxQueueBytes(), d.uf.ProbeOverhead() * 100
	}
	fullRTT, fullQ, _ := incast(nil)
	noStageRTT, noStageQ, _ := incast(func(c *vfabric.Config) { c.Edge.DisableTwoStage = true })
	r.Printf("two-stage admission: max RTT %6.1fus / queue %3dKB with, %6.1fus / %3dKB without",
		fullRTT, fullQ/1024, noStageRTT, noStageQ/1024)
	r.metric("full.rtt_max_us", fullRTT)
	r.metric("nostage.rtt_max_us", noStageRTT)

	// ---- (b) probing payload L_w: overhead vs burst containment ----
	for _, lw := range []int64{1024, 4096, 16384} {
		rtt, _, ovh := incast(func(c *vfabric.Config) { c.Edge.ProbePayloadBytes = lw })
		r.Printf("L_w = %5d B: probing overhead %5.2f%%, max RTT %6.1fus", lw, ovh, rtt)
		r.metric("lw"+strconv.FormatInt(lw, 10)+".overhead_pct", ovh)
	}

	// ---- (c) Guarantee Partitioning: bursty pair reclaiming its hose ----
	gp := func(disable bool) float64 {
		st := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
		d := deployPlain(schemeUFAB, o, r, st.Graph, func(c *vfabric.Config) {
			if disable {
				// GP off is deliberate sabotage of the guarantee machinery —
				// the auditor would (correctly) flag it, so only the healthy
				// variant is audited.
				c.Edge.TokenPeriod = -1
				c.Audit = nil
			}
		})
		eng, uf := d.eng, d.uf
		vf := uf.AddVF(1, 4e9, 4) // 40-token hose
		// Two pairs of the same VF: static split gives each 20 tokens;
		// GP moves the idle pair's share to the busy one.
		busyBuf := &ufabe.Buffer{}
		busy := uf.AddFlowDemand(vf, st.Hosts[0], st.Hosts[1], 20, busyBuf)
		_ = uf.AddFlowDemand(vf, st.Hosts[0], st.Hosts[2], 20, &ufabe.Buffer{})
		// A competing tenant keeps the uplink fully subscribed so the
		// busy pair's rate tracks its token share.
		other := uf.AddVF(2, 6e9, 5)
		uf.AddFlow(other, st.Hosts[1], st.Hosts[0], 0)
		compUp := uf.AddFlow(other, st.Hosts[2], st.Hosts[1], 0)
		compUp.Buffer.Add(1 << 40)
		busyBuf.Add(1 << 40)
		// Competitor shares the busy pair's destination downlink.
		stop := uf.StartSampling(200 * sim.Microsecond)
		eng.RunUntil(dur)
		stop()
		uf.SampleRates()
		return busy.Rate(dur/2, dur)
	}
	withGP := gp(false)
	withoutGP := gp(true)
	r.Printf("guarantee partitioning: busy pair %5.2f G with GP vs %5.2f G with static tokens (4G hose)",
		withGP/1e9, withoutGP/1e9)
	r.metric("gp.rate_gbps", withGP/1e9)
	r.metric("static.rate_gbps", withoutGP/1e9)

	// ---- (d) migration: colliding placement with and without candidates ----
	migr := func(pinned bool) float64 {
		tt := topo.NewTwoTier(2, 3, topo.Gbps(10), 5*sim.Microsecond)
		d := deployPlain(schemeUFAB, o, r, tt.Graph, func(c *vfabric.Config) {
			if pinned {
				// The pinned variant deliberately overcommits one path (that
				// is the ablation); only the healthy multi-candidate run is
				// audited.
				c.Audit = nil
			}
		})
		eng, uf := d.eng, d.uf
		var flows []*vfabric.Flow
		for i := 0; i < 3; i++ {
			vf := uf.AddVF(int32(i+1), 4e9, 4)
			all := tt.Graph.Paths(tt.HostsLeft[i], tt.HostsRight[i], 0)
			routes := all
			if pinned {
				// Worst-case placement with no way out: everyone on
				// the first path only.
				routes = all[:1]
			}
			buf := &ufabe.Buffer{}
			fl := uf.AddFlowRoutes(vf, routes, 0, buf)
			buf.Add(1 << 40)
			flows = append(flows, fl)
		}
		stop := uf.StartSampling(200 * sim.Microsecond)
		eng.RunUntil(2 * dur)
		stop()
		uf.SampleRates()
		worst := -1.0
		for _, fl := range flows {
			rate := fl.Rate(dur, 2*dur)
			if worst < 0 || rate < worst {
				worst = rate
			}
		}
		return worst
	}
	withMigr := migr(false) // all paths available
	without := migr(true)   // everyone pinned to one path
	r.Printf("path migration: worst flow %5.2f G with candidates vs %5.2f G pinned (3x4G on 2x10G paths)",
		withMigr/1e9, without/1e9)
	r.metric("migration.worst_gbps", withMigr/1e9)
	r.metric("pinned.worst_gbps", without/1e9)
	r.Printf("expected: two-stage bounds the incast tail; GP roughly doubles the busy pair; migration rescues the worst flow when initial placement collides")
	return r
}
