package vfabric

import (
	"testing"

	"ufab/internal/audit"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// auditedStar assembles an audited 3-host star with two 4G-guarantee VFs
// sending backlogged into the same host.
func auditedStar(seed int64) (*sim.Engine, *Fabric, *Flow, *Flow) {
	eng := sim.New()
	st := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
	reg := telemetry.New()
	reg.EnableRecorder(0)
	f := New(eng, st.Graph, Config{
		Seed:      seed,
		Telemetry: reg,
		Audit:     &audit.Config{},
	})
	vf1 := f.AddVF(1, 4e9, 3)
	vf2 := f.AddVF(2, 4e9, 3)
	fl1 := f.AddFlow(vf1, st.Hosts[0], st.Hosts[2], 0)
	fl2 := f.AddFlow(vf2, st.Hosts[1], st.Hosts[2], 0)
	fl1.Buffer.Add(1 << 40)
	fl2.Buffer.Add(1 << 40)
	return eng, f, fl1, fl2
}

func TestAuditCleanRun(t *testing.T) {
	eng, f, _, _ := auditedStar(1)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(14 * sim.Millisecond)
	stop()
	f.SampleRates()
	log := f.AuditLog()
	if log == nil {
		t.Fatal("AuditLog = nil with Audit configured")
	}
	if n := log.Unexcused(); n != 0 {
		t.Fatalf("clean run has %d unexcused findings: %+v", n, log.Findings())
	}
}

func TestAuditCatchesDeliberateMinBWViolation(t *testing.T) {
	eng, f, fl1, _ := auditedStar(1)
	stop := f.StartSampling(100 * sim.Microsecond)
	// Sabotage VF 1 mid-run: pin its pair's sender token to 1 (100 Mbps
	// worth) while the VF's declared guarantee stays 4G — the WFQ share
	// collapses and Eqn 1 is violated from here on.
	eng.At(6*sim.Millisecond, func() { fl1.Pair.SetPhi(1) })
	eng.RunUntil(14 * sim.Millisecond)
	stop()
	f.SampleRates()
	log := f.AuditLog()
	fs := log.Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly the one injected min-BW violation", fs)
	}
	fd := fs[0]
	if fd.Kind != audit.MinBWViolation || fd.VF != 1 || fd.Entity != "vf.1" {
		t.Fatalf("finding = %+v, want min_bw on vf.1", fd)
	}
	if fd.Excused {
		t.Fatalf("finding excused without any fault window: %+v", fd)
	}
	// The violation interval must start after the sabotage (plus up to one
	// rate window of averaging lag) and persist to the end of the run.
	if fd.FromPS < 6_000_000_000 || fd.FromPS > 8_500_000_000 {
		t.Fatalf("FromPS = %d, want within [6ms, 8.5ms]", fd.FromPS)
	}
	if fd.ToPS < 13_500_000_000 {
		t.Fatalf("ToPS = %d, want the violation held to the end (≥13.5ms)", fd.ToPS)
	}
	if fd.Observed >= fd.Bound || fd.Observed > 1e9 {
		t.Fatalf("Observed = %g (bound %g), want the collapsed ≈0.23G rate", fd.Observed, fd.Bound)
	}
}

// TestAuditFeedReportsEvictedEvents: a partitioned fabric's auditor is fed
// from the recorders' rings at each sampling tick, and a ring that turns over
// between two ticks has evicted events the auditor never sees — the faults
// that excuse findings among them, for all it knows. Every such event must be
// counted on the log, where the audit gates fail on it; a ring deep enough
// for the interval counts nothing.
func TestAuditFeedReportsEvictedEvents(t *testing.T) {
	const pods = 2
	run := func(ringCap int) (dropped int, want uint64) {
		cl := topo.NewClos(topo.ClosConfig{Pods: pods, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4,
			HostsPerToR: 2, LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
		reg := telemetry.New()
		reg.EnableRecorder(ringCap)
		reg.EnableShardRecorders(pods, ringCap) // Build's own call is idempotent on the same count
		f, err := Build(BuildOptions{Graph: cl.Graph, Cfg: Config{Seed: 1, Telemetry: reg, Audit: &audit.Config{}}})
		if err != nil {
			t.Fatal(err)
		}
		stride := len(cl.Hosts) / 2
		for i, src := range cl.Hosts {
			vf := f.AddVF(int32(i+1), 1e9, 0)
			f.AddFlow(vf, src, cl.Hosts[(i+stride)%len(cl.Hosts)], 0).Buffer.Add(1 << 30)
		}
		recs := append([]*telemetry.Recorder{reg.Recorder()}, reg.ShardRecorders()...)
		seen := make([]uint64, len(recs))
		for tick := 1; tick <= 4; tick++ {
			f.Eng.RunUntil(sim.Time(tick) * 500 * sim.Microsecond)
			for i, r := range recs {
				if fresh := r.Total() - seen[i]; fresh > uint64(r.Len()) {
					want += fresh - uint64(r.Len())
				}
				seen[i] = r.Total()
			}
			f.SampleRates()
		}
		return f.AuditLog().Dropped(), want
	}
	if dropped, want := run(16); want == 0 || uint64(dropped) != want {
		t.Errorf("16-event rings: the log counts %d events lost to the auditor, the rings evicted %d between ticks", dropped, want)
	}
	if dropped, want := run(0); dropped != 0 || want != 0 {
		t.Errorf("default rings: %d counted, %d evicted; want none", dropped, want)
	}
}
