package vfabric_test

import (
	"fmt"
	"slices"

	blhost "ufab/internal/baseline/host"
	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// Example demonstrates the core promise: two tenants with hose guarantees
// share a bottleneck in proportion to what they bought, and the idle
// tenant's bandwidth is reclaimed the moment it has demand again.
func Example() {
	eng := sim.New()
	star := topo.NewStar(3, topo.Gbps(10), 5*sim.Microsecond)
	fabric := vfabric.New(eng, star.Graph, vfabric.Config{Seed: 42})

	gold := fabric.AddVF(1, 6e9, 5)   // 6 Gbps hose
	bronze := fabric.AddVF(2, 2e9, 2) // 2 Gbps hose
	g := fabric.AddFlow(gold, star.Hosts[0], star.Hosts[2], 0)
	b := fabric.AddFlow(bronze, star.Hosts[1], star.Hosts[2], 0)
	g.Buffer.Add(1 << 40)
	b.Buffer.Add(1 << 40)

	stop := fabric.StartSampling(100 * sim.Microsecond)
	eng.RunUntil(5 * sim.Millisecond)
	stop()
	fabric.SampleRates()

	ratio := g.Rate(3*sim.Millisecond, 5*sim.Millisecond) /
		b.Rate(3*sim.Millisecond, 5*sim.Millisecond)
	fmt.Printf("gold:bronze share ratio ≈ %.0f:1\n", ratio)
	fmt.Printf("switch queue stayed under 3 BDP: %v\n",
		fabric.MaxQueueBytes() < 3*45_000)
	// Output:
	// gold:bronze share ratio ≈ 3:1
	// switch queue stayed under 3 BDP: true
}

// Example_incast is the Case-1 scenario of the paper (§2.2): 14 senders
// with equal guarantees burst at one receiver at once. μFAB's two-stage
// traffic admission holds the switch queue and the tail RTT to half of what
// the guarantee-agnostic PicNIC′+WCC+Clove combination lets them grow to.
// The RTT columns are the smallest per-flow median and the largest sample.
func Example_incast() {
	const n = 14
	dur := 20 * sim.Millisecond
	fmt.Printf("%-22s %10s %10s %12s %12s\n", "scheme", "min p50", "max RTT", "max queue", "goodput")
	for _, scheme := range []string{"uFAB", "PicNIC'+WCC+Clove"} {
		eng := sim.New()
		star := topo.NewStar(n+1, topo.Gbps(10), 5*sim.Microsecond)
		dst := star.Hosts[n]
		var rtt stats.Samples
		var maxQ int
		var goodput float64
		if scheme == "uFAB" {
			f := vfabric.New(eng, star.Graph, vfabric.Config{Seed: 1})
			var flows []*vfabric.Flow
			for i := 0; i < n; i++ {
				fl := f.AddFlow(f.AddVF(int32(i+1), 500e6, 2), star.Hosts[i], dst, 0)
				fl.Pair.RTT = &stats.Samples{}
				fl.Buffer.Add(1 << 40)
				flows = append(flows, fl)
			}
			eng.RunUntil(dur)
			for _, fl := range flows {
				rtt.Add(fl.Pair.RTT.P(0.5))
				rtt.Add(fl.Pair.RTT.Max())
				goodput += float64(fl.Pair.Delivered*8) / dur.Seconds()
			}
			maxQ = f.MaxQueueBytes()
		} else {
			f := blhost.NewFabric(eng, star.Graph, blhost.Config{Scheme: blhost.PWC, Seed: 1}, dataplane.Config{})
			var flows []*blhost.FlowHandle
			for i := 0; i < n; i++ {
				fh := f.AddFlow(int32(i+1), 5, star.Hosts[i], dst, 0)
				fh.Flow.RTT = &stats.Samples{}
				fh.Buffer.Add(1 << 40)
				flows = append(flows, fh)
			}
			eng.RunUntil(dur)
			for _, fh := range flows {
				rtt.Add(fh.Flow.RTT.P(0.5))
				rtt.Add(fh.Flow.RTT.Max())
				goodput += float64(fh.Flow.Delivered*8) / dur.Seconds()
			}
			maxQ = slices.Max(f.Net.SwitchQueueHighWaters())
		}
		fmt.Printf("%-22s %8.1fus %8.1fus %10dKB %9.2fGbps\n", scheme, rtt.Min(), rtt.Max(), maxQ/1024, goodput/1e9)
	}
	base := topo.NewStar(n+1, topo.Gbps(10), 5*sim.Microsecond).Graph.Diameter(1500)
	fmt.Printf("baseRTT %.1f us, 3·BDP = %.0f KB (uFAB's inflight bound, §3.4)\n",
		base.Micros(), 3*10e9*base.Seconds()/8/1024)
	// Output:
	// scheme                    min p50    max RTT    max queue      goodput
	// uFAB                       22.4us    173.0us        185KB      8.94Gbps
	// PicNIC'+WCC+Clove          89.4us    350.7us        402KB      9.83Gbps
	// baseRTT 24.8 us, 3·BDP = 91 KB (uFAB's inflight bound, §3.4)
}
