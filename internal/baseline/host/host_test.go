package host

import (
	"slices"
	"testing"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
)

func starBaseline(n int, scheme Scheme, seed int64) (*sim.Engine, *Fabric, *topo.Star) {
	eng := sim.New()
	st := topo.NewStar(n, topo.Gbps(10), 5*sim.Microsecond)
	f := NewFabric(eng, st.Graph, Config{Scheme: scheme, Seed: seed}, dataplane.Config{})
	return eng, f, st
}

func TestSchemeString(t *testing.T) {
	if PWC.String() != "PicNIC'+WCC+Clove" || ESClove.String() != "ES+Clove" {
		t.Error("Scheme.String wrong")
	}
}

func TestPWCSingleFlowThroughput(t *testing.T) {
	eng, f, st := starBaseline(2, PWC, 1)
	fh := f.AddFlow(1, 10, st.Hosts[0], st.Hosts[1], 0)
	fh.Buffer.Add(1 << 40)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(10 * sim.Millisecond)
	stop()
	f.SampleRates()
	rate := fh.Rate(5*sim.Millisecond, 10*sim.Millisecond)
	if rate < 6e9 {
		t.Fatalf("PWC single flow = %.2f G, want high utilization", rate/1e9)
	}
}

func TestESSingleFlowThroughput(t *testing.T) {
	eng, f, st := starBaseline(2, ESClove, 2)
	fh := f.AddFlow(1, 10, st.Hosts[0], st.Hosts[1], 0)
	fh.Buffer.Add(1 << 40)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(20 * sim.Millisecond)
	stop()
	f.SampleRates()
	rate := fh.Rate(10*sim.Millisecond, 20*sim.Millisecond)
	// ES probes up from its 1G guarantee; with 200 Mbps/RTT AI it
	// should be well above the guarantee by 10 ms.
	if rate < 3e9 {
		t.Fatalf("ES flow = %.2f G, want rate probing above guarantee", rate/1e9)
	}
}

func TestESNeverBelowGuaranteeUnderCongestion(t *testing.T) {
	// Two ES flows with guarantees 2G and 6G into one 10G host: both
	// must at least keep their guarantees (ES's defining property).
	eng, f, st := starBaseline(3, ESClove, 3)
	fa := f.AddFlow(1, 20, st.Hosts[0], st.Hosts[2], 0)
	fb := f.AddFlow(2, 60, st.Hosts[1], st.Hosts[2], 0)
	fa.Buffer.Add(1 << 40)
	fb.Buffer.Add(1 << 40)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(20 * sim.Millisecond)
	stop()
	f.SampleRates()
	ra := fa.Rate(10*sim.Millisecond, 20*sim.Millisecond)
	rb := fb.Rate(10*sim.Millisecond, 20*sim.Millisecond)
	if ra < 0.85*2e9 {
		t.Errorf("flow A = %.2f G, want ≥ guarantee 2 G", ra/1e9)
	}
	if rb < 0.85*6e9 {
		t.Errorf("flow B = %.2f G, want ≥ guarantee 6 G", rb/1e9)
	}
}

func TestESBuildsQueues(t *testing.T) {
	// Oversubscribed ES senders (8+6 > 10G) keep sending at ≥ guarantee
	// even when congested, so the switch queue grows — Fig 11e's
	// pathology.
	eng, f, st := starBaseline(3, ESClove, 4)
	fa := f.AddFlow(1, 60, st.Hosts[0], st.Hosts[2], 0)
	fb := f.AddFlow(2, 60, st.Hosts[1], st.Hosts[2], 0)
	fa.Buffer.Add(1 << 40)
	fb.Buffer.Add(1 << 40)
	eng.RunUntil(10 * sim.Millisecond)
	if q := slices.Max(f.Net.SwitchQueueHighWaters()); q < 100_000 {
		t.Errorf("ES max queue = %d bytes, expected deep queues when guarantees exceed capacity", q)
	}
}

func TestPWCReceiverAdmissionWeighted(t *testing.T) {
	// Two PWC senders (weights 1 and 4) into one host: receiver-driven
	// admission should steer the split toward 1:4.
	eng, f, st := starBaseline(3, PWC, 5)
	fa := f.AddFlow(1, 10, st.Hosts[0], st.Hosts[2], 0)
	fb := f.AddFlow(2, 40, st.Hosts[1], st.Hosts[2], 0)
	fa.Buffer.Add(1 << 40)
	fb.Buffer.Add(1 << 40)
	stop := f.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(20 * sim.Millisecond)
	stop()
	f.SampleRates()
	ra := fa.Rate(10*sim.Millisecond, 20*sim.Millisecond)
	rb := fb.Rate(10*sim.Millisecond, 20*sim.Millisecond)
	ratio := rb / ra
	if ratio < 2 {
		t.Errorf("weighted split rb/ra = %.2f, want ≳4 (weighted admission)", ratio)
	}
}

func TestPWCIncastLatencyGrowsWithFanIn(t *testing.T) {
	// Case-1 (Fig 4): PWC's tail RTT grows with the incast degree.
	p99 := func(n int) float64 {
		eng, f, st := starBaseline(n+1, PWC, 7)
		for i := 0; i < n; i++ {
			fh := f.AddFlow(int32(i+1), 5, st.Hosts[i], st.Hosts[n], 0)
			fh.Flow.RTT = &stats.Samples{}
			fh.Buffer.Add(1 << 40)
		}
		eng.RunUntil(10 * sim.Millisecond)
		worst := 0.0
		for _, fh := range f.Flows {
			if v := fh.Flow.RTT.P(0.99); v > worst {
				worst = v
			}
		}
		return worst
	}
	small := p99(2)
	large := p99(12)
	if large < 1.5*small {
		t.Errorf("p99 RTT: 12-to-1 = %.1f μs vs 2-to-1 = %.1f μs; want growth with incast degree", large, small)
	}
}

func TestCloveSpreadsFlowlets(t *testing.T) {
	// A single flow over 3 paths with a tiny flowlet gap should use
	// more than one path over time.
	eng := sim.New()
	tt := topo.NewTwoTier(3, 1, topo.Gbps(10), 2*sim.Microsecond)
	f := NewFabric(eng, tt.Graph, Config{
		Scheme:   PWC,
		CloveGap: 36 * sim.Microsecond,
		Seed:     11,
	}, dataplane.Config{})
	fh := f.AddFlow(1, 10, tt.HostsLeft[0], tt.HostsRight[0], 0)
	// On-off traffic to create flowlet gaps.
	var tick func()
	tick = func() {
		if eng.Now() > 5*sim.Millisecond {
			return
		}
		fh.Buffer.Add(30000)
		eng.After(100*sim.Microsecond, tick)
	}
	eng.At(0, tick)
	eng.RunUntil(6 * sim.Millisecond)
	if fh.Flow.lb.Repicks == 0 {
		t.Error("Clove never repicked a path across flowlet gaps")
	}
}

func TestLossRecoveryRequeues(t *testing.T) {
	// Tiny switch buffers force drops; the RTO must requeue so the flow
	// still delivers everything.
	eng := sim.New()
	st := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
	f := NewFabric(eng, st.Graph, Config{Scheme: ESClove, Seed: 13}, dataplane.Config{
		QueueCapBytes: 20000,
	})
	fa := f.AddFlow(1, 50, st.Hosts[0], st.Hosts[2], 0)
	fb := f.AddFlow(2, 50, st.Hosts[1], st.Hosts[2], 0)
	const msg = 3_000_000
	fa.Buffer.Add(msg)
	fb.Buffer.Add(msg)
	eng.RunUntil(60 * sim.Millisecond)
	if f.Net.TotalDrops == 0 {
		t.Skip("no drops induced; cannot exercise recovery")
	}
	if fa.Flow.Delivered != msg || fb.Flow.Delivered != msg {
		t.Fatalf("delivered %d/%d of %d with %d drops (losses %d/%d)",
			fa.Flow.Delivered, fb.Flow.Delivered, msg, f.Net.TotalDrops,
			fa.Flow.Losses, fb.Flow.Losses)
	}
}

// TestDataAndAckAllocateNothing is the baselines' share of the per-packet
// budget μFAB-E's TestSendAllocationBudget holds: once a backlogged flow is
// in steady state, sending a data packet, turning it around as its ack and
// taking the ack back allocates nothing — the packet comes off the free list,
// the weight, grant and ECN echo ride in typed header fields, and the send
// timer's callback is bound once per agent.
func TestDataAndAckAllocateNothing(t *testing.T) {
	for _, scheme := range []Scheme{PWC, ESClove} {
		eng, f, st := starBaseline(2, scheme, 1)
		fh := f.AddFlow(1, 10, st.Hosts[0], st.Hosts[1], 0)
		fh.Buffer.Add(1 << 50)
		eng.RunUntil(2 * sim.Millisecond) // windows open, free lists stocked
		fl := fh.Flow
		acked := func() {
			for d := fl.Delivered; fl.Delivered == d; {
				if !eng.Step() {
					t.Fatal("engine drained before the backlogged flow was acked")
				}
			}
		}
		if a := testing.AllocsPerRun(500, acked); a != 0 {
			t.Errorf("%v: %v allocations per data packet and its ack, want 0", scheme, a)
		}
	}
}

// TestRTTRecordsOnlyWhenAttached is ufabe's test of the same name for both
// baseline schemes: no samples unless attached, and attached, one per ack —
// the ack's round trip as the trace sees it — with the count and mean every
// flow recorded before samples had to be attached.
func TestRTTRecordsOnlyWhenAttached(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		n      int
		mean   float64
	}{
		{PWC, 700, 22.51344747142837},
		{ESClove, 124, 22.502399999999987},
	} {
		run := func(attach bool) (*Flow, []float64) {
			eng, f, st := starBaseline(2, tc.scheme, 1)
			fh := f.AddFlow(1, 10, st.Hosts[0], st.Hosts[1], 0)
			if attach {
				fh.Flow.RTT = &stats.Samples{}
			}
			var acks []float64
			f.Net.Trace = func(at topo.NodeID, pkt *dataplane.Packet) {
				if at == st.Hosts[0] && pkt.Kind == dataplane.Ack {
					acks = append(acks, (eng.Now() - pkt.AckedSentAt).Micros())
				}
			}
			fh.Buffer.Add(1 << 20)
			eng.RunUntil(sim.Millisecond)
			return fh.Flow, acks
		}
		bare, bareAcks := run(false)
		fl, acks := run(true)
		if bare.RTT != nil {
			t.Errorf("%v: an unattached flow has RTT samples", tc.scheme)
		}
		if bare.Delivered != fl.Delivered || bare.SentBytes != fl.SentBytes || len(bareAcks) != len(acks) {
			t.Errorf("%v: attaching RTT samples changed the run: delivered %d / %d, sent %d / %d, acks %d / %d",
				tc.scheme, bare.Delivered, fl.Delivered, bare.SentBytes, fl.SentBytes, len(bareAcks), len(acks))
		}
		if n, mean := fl.RTT.Len(), fl.RTT.Mean(); n != tc.n || mean != tc.mean {
			t.Errorf("%v: attached flow recorded %d samples of mean %v µs, want %d of mean %v", tc.scheme, n, mean, tc.n, tc.mean)
		}
		if got := fl.RTT.TakeAll(); !slices.Equal(got, acks) {
			t.Errorf("%v: attached flow recorded %d samples that are not its %d acks' round trips", tc.scheme, len(got), len(acks))
		}
	}
}

// TestAdmissionUpdateIgnoresMapOrder: PicNIC′'s receiver grants are a
// function of its pairs' weights and bytes, not of the order Go happens to
// iterate its map in — the water-fill sums weights in input order, and
// {0.1, 0.2, 0.3} summed in another order differs in the last place.
func TestAdmissionUpdateIgnoresMapOrder(t *testing.T) {
	_, f, st := starBaseline(2, PWC, 1)
	a := f.Agents[st.Hosts[1]]
	weights := []float64{0.1, 0.2, 0.3, 0.7, 1.1}
	var first []float64
	for run := 0; run < 200; run++ {
		clear(a.recv)
		for i, w := range weights {
			a.recv[dataplane.VMPair(i+1)] = &recvState{weight: w, bytes: 1 << 20}
		}
		a.admissionUpdate()
		grants := make([]float64, len(weights))
		for i := range weights {
			grants[i] = a.recv[dataplane.VMPair(i+1)].grant
		}
		if grants[0] == 0 {
			t.Fatalf("grants %v: the receiver is not oversubscribed", grants)
		}
		if first == nil {
			first = grants
		} else if !slices.Equal(grants, first) {
			t.Fatalf("run %d grants %v, run 0 %v", run, grants, first)
		}
	}
}

// TestWarmBaselineAllocatesNothing: a PWC receiver's admission tick — its
// pairs sorted, their demands water-filled into grants — allocates nothing
// once its scratch has grown; and once two backlogged flows into one host
// are warm, two milliseconds of either scheme — data, acks, utilization probes
// every 100 µs, admission ticks and the RTO checks that re-arm every 16
// baseRTTs — allocates nothing either: the RTO check is bound to its flow
// once, and a probe's buffer comes back with its response.
func TestWarmBaselineAllocatesNothing(t *testing.T) {
	_, f, st := starBaseline(2, PWC, 1)
	a := f.Agents[st.Hosts[1]]
	for i, w := range []float64{0.1, 0.2, 0.3, 0.7, 1.1} {
		a.recv[dataplane.VMPair(i+1)] = &recvState{weight: w}
	}
	tick := func() {
		for _, rs := range a.recv {
			rs.bytes = 1 << 20
		}
		a.admissionUpdate()
	}
	tick()
	if a.recv[1].grant == 0 {
		t.Fatal("the receiver is not oversubscribed: no grants to compute")
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("a warm PWC admission tick allocated %v times", n)
	}

	for _, scheme := range []Scheme{PWC, ESClove} {
		eng, f, st := starBaseline(3, scheme, 1)
		fa := f.AddFlow(1, 20, st.Hosts[0], st.Hosts[2], 0)
		fb := f.AddFlow(2, 60, st.Hosts[1], st.Hosts[2], 0)
		fa.Buffer.Add(1 << 50)
		fb.Buffer.Add(1 << 50)
		eng.RunUntil(3 * sim.Millisecond) // windows open, free lists and scratch stocked
		if rto := fa.Flow.rto; 4*rto > 2*sim.Millisecond {
			t.Fatalf("%v: an RTO of %v re-arms fewer than four times in the window", scheme, rto)
		}
		if n := testing.AllocsPerRun(5, func() { eng.RunUntil(eng.Now() + 2*sim.Millisecond) }); n != 0 {
			t.Errorf("%v: two warm milliseconds allocated %v times", scheme, n)
		}
	}
}
