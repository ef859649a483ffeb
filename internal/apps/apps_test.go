package apps

import (
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// fakeNet completes every message after size/rate + a fixed latency,
// isolating the application logic from any transport.
type fakeNet struct {
	eng     *sim.Engine
	rate    float64 // bytes per second
	latency sim.Duration
	conns   map[[3]int64]*workload.Messages
	// Dials counts distinct channels created.
	Dials int
}

func newFakeNet(rate float64, latency sim.Duration) *fakeNet {
	return &fakeNet{eng: sim.New(), rate: rate, latency: latency, conns: map[[3]int64]*workload.Messages{}}
}

func (f *fakeNet) Engine() sim.Scheduler { return f.eng }

func (f *fakeNet) Dial(vf int32, tokens float64, src, dst topo.NodeID) *workload.Messages {
	k := [3]int64{int64(vf), int64(src), int64(dst)}
	if c := f.conns[k]; c != nil {
		return c
	}
	msgs := &workload.Messages{}
	f.conns[k] = msgs
	f.Dials++
	msgs.SetKick(func() {
		// Serve the whole pending backlog after a service delay.
		n := msgs.Pending()
		msgs.Consume(n)
		delay := f.latency + sim.DurationFromSeconds(float64(n)/f.rate)
		f.eng.After(delay, func() { msgs.Delivered(n, f.eng.Now()) })
	})
	return msgs
}

func testVMs(n int, hostBase int) []VM {
	hosts := make([]topo.NodeID, 4)
	for i := range hosts {
		hosts[i] = topo.NodeID(hostBase + i)
	}
	return PlaceVMs(hosts, n)
}

func TestPlaceVMs(t *testing.T) {
	hosts := []topo.NodeID{10, 11, 12}
	vms := PlaceVMs(hosts, 7)
	if len(vms) != 7 {
		t.Fatalf("placed %d", len(vms))
	}
	counts := map[topo.NodeID]int{}
	for _, vm := range vms {
		counts[vm.Host]++
	}
	// Round-robin: 3,2,2.
	if counts[10] != 3 || counts[11] != 2 || counts[12] != 2 {
		t.Fatalf("placement %v", counts)
	}
	if vms[3].Idx != 1 {
		t.Errorf("vm 3 idx = %d, want 1 (second on host 10)", vms[3].Idx)
	}
}

func TestMemcachedClosedLoop(t *testing.T) {
	net := newFakeNet(1e9, 10*sim.Microsecond) // 8 Gbps, 10 μs latency
	mc := NewMemcached(net, MemcachedConfig{
		VF: 1, Tokens: 4,
		Clients: testVMs(4, 0),
		Servers: testVMs(8, 100),
		Period:  100 * sim.Microsecond,
		Seed:    1,
	})
	mc.Start()
	net.eng.RunUntil(10 * sim.Millisecond)
	// 4 clients, one query per 100 μs each (QCT ≈ 20 μs ≪ period):
	// ≈ 400 queries.
	if mc.Queries < 350 || mc.Queries > 450 {
		t.Fatalf("queries = %d, want ≈400", mc.Queries)
	}
	qps := mc.QPS(net.eng.Now())
	if qps < 35000 || qps > 45000 {
		t.Fatalf("QPS = %.0f", qps)
	}
	// Each query = request + response trip ≥ 2× latency.
	if mc.QCT.Min() < 20 {
		t.Errorf("QCT min = %v μs, want ≥ 20", mc.QCT.Min())
	}
	mc.Stop()
	at := mc.Queries
	net.eng.RunUntil(12 * sim.Millisecond)
	if mc.Queries > at+8 {
		t.Errorf("queries kept flowing after Stop: %d -> %d", at, mc.Queries)
	}
}

func TestMemcachedClosedLoopThrottlesUnderSlowdown(t *testing.T) {
	slow := newFakeNet(2e6, 2*sim.Millisecond) // queries take >2 ms
	mc := NewMemcached(slow, MemcachedConfig{
		VF: 1, Tokens: 4,
		Clients: testVMs(2, 0),
		Servers: testVMs(4, 100),
		Period:  100 * sim.Microsecond,
		Seed:    2,
	})
	mc.Start()
	slow.eng.RunUntil(10 * sim.Millisecond)
	// Closed loop: with ≈4 ms per query, each client completes ≈2.
	if mc.Queries > 10 {
		t.Fatalf("queries = %d, closed loop should throttle", mc.Queries)
	}
}

func TestMongoContinuousFetch(t *testing.T) {
	net := newFakeNet(1.25e9, 5*sim.Microsecond) // 10 Gbps
	md := NewMongo(net, MongoConfig{
		VF: 2, Tokens: 8,
		Clients:   testVMs(4, 0),
		Servers:   testVMs(4, 100),
		fetchSize: 500_000,
		Seed:      3,
	})
	md.Start()
	net.eng.RunUntil(20 * sim.Millisecond)
	// Each fetch ≈ 500KB/1.25GBps = 400 μs + latency: ≈ 48 per client.
	if md.Fetches < 100 || md.Fetches > 250 {
		t.Fatalf("fetches = %d", md.Fetches)
	}
	md.Stop()
}

func TestMongoConcurrency(t *testing.T) {
	run := func(conc int) int64 {
		net := newFakeNet(1.25e9, 5*sim.Microsecond)
		md := NewMongo(net, MongoConfig{
			VF: 2, Tokens: 8,
			Clients:     testVMs(2, 0),
			Servers:     testVMs(4, 100),
			Concurrency: conc,
			Seed:        4,
		})
		md.Start()
		net.eng.RunUntil(10 * sim.Millisecond)
		return md.Fetches
	}
	if c1, c3 := run(1), run(3); c3 < 2*c1 {
		t.Fatalf("concurrency scaling: %d vs %d", c1, c3)
	}
}

func TestEBSTaskPipeline(t *testing.T) {
	net := newFakeNet(1.25e9, 5*sim.Microsecond)
	hostsL := []topo.NodeID{1, 2, 3, 4}
	hostsR := []topo.NodeID{5, 6, 7, 8}
	ebs := NewEBS(net, EBSConfig{
		SAHosts:      hostsL,
		StorageHosts: hostsR,
		SATokens:     20, BATokens: 60, GCTokens: 10,
		Seed: 5,
	})
	ebs.Start()
	net.eng.RunUntil(10 * sim.Millisecond)
	// 4 SAs × one task per 320 μs ≈ 124 tasks.
	if ebs.SATCT.Len() < 100 || ebs.SATCT.Len() > 140 {
		t.Fatalf("SA tasks = %d", ebs.SATCT.Len())
	}
	// Every completed total spans SA + 3-way replication: total ≥ SA.
	if ebs.TotalTCT.Len() == 0 {
		t.Fatal("no completed totals")
	}
	if ebs.TotalTCT.Mean() <= ebs.SATCT.Mean() {
		t.Errorf("total %.3f ≤ SA %.3f", ebs.TotalTCT.Mean(), ebs.SATCT.Mean())
	}
	// GC ran too.
	if ebs.GCTCT.Len() == 0 {
		t.Fatal("no GC cycles")
	}
	if ebs.Summary() == "" {
		t.Error("empty summary")
	}
	ebs.Stop()
}

func TestEBSConfigDefaults(t *testing.T) {
	c := EBSConfig{}
	c.setDefaults()
	if c.SAPeriod != 320*sim.Microsecond || c.SASize != 64<<10 || c.GCPeriod != sim.Millisecond {
		t.Errorf("defaults wrong: %+v", c)
	}
	if ebsReplicas != 3 || ebsSAVF == ebsBAVF || ebsBAVF == ebsGCVF || ebsSAVF == ebsGCVF {
		t.Error("the mix's constants: want 3 replicas and three distinct VF ids")
	}
}

func TestRPCSequencing(t *testing.T) {
	net := newFakeNet(1e9, 50*sim.Microsecond)
	r := rpcer{net: net, vf: 1, tokens: 1, reqSize: 64}
	var qct sim.Duration
	r.call(1, 2, 1000, func(d sim.Duration) { qct = d })
	net.eng.Run()
	// Two trips of ≥50 μs each.
	if qct < 100*sim.Microsecond {
		t.Fatalf("qct = %v, want ≥ 100 μs (two trips)", qct)
	}
	// Channels: one per direction.
	if net.Dials != 2 {
		t.Fatalf("dials = %d, want 2", net.Dials)
	}
}
