// Incast: the Case-1 scenario of the paper (§2.2) as a runnable demo. N
// senders with equal guarantees burst at one receiver simultaneously;
// μFAB's two-stage traffic admission bounds the switch queue near 3·BDP
// and the tail RTT near 4 baseRTTs, while the guarantee-agnostic
// PicNIC′+WCC+Clove combination lets both grow with the incast degree.
//
//	go run ./examples/incast [-n 14]
package main

import (
	"flag"
	"fmt"
	"slices"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/vfabric"

	blhost "ufab/internal/baseline/host"
)

func main() {
	n := flag.Int("n", 14, "incast degree (senders)")
	flag.Parse()

	fmt.Printf("%d-to-1 incast, 10G links, 500 Mbps guarantees, synchronized start\n\n", *n)
	fmt.Printf("%-22s %10s %10s %12s %12s\n", "scheme", "p50 RTT", "max RTT", "max queue", "goodput")

	for _, scheme := range []string{"uFAB", "PicNIC'+WCC+Clove"} {
		eng := sim.New()
		star := topo.NewStar(*n+1, topo.Gbps(10), 5*sim.Microsecond)
		dst := star.Hosts[*n]

		var rtt stats.Samples
		var maxQ int
		var goodput float64
		dur := 20 * sim.Millisecond

		if scheme == "uFAB" {
			f := vfabric.New(eng, star.Graph, vfabric.Config{Seed: 1})
			var flows []*vfabric.Flow
			for i := 0; i < *n; i++ {
				vf := f.AddVF(int32(i+1), 500e6, 2)
				fl := f.AddFlow(vf, star.Hosts[i], dst, 0)
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
			f := blhost.NewFabric(eng, star.Graph,
				blhost.Config{Scheme: blhost.PWC, Seed: 1}, dataplane.Config{})
			var flows []*blhost.FlowHandle
			for i := 0; i < *n; i++ {
				fh := f.AddFlow(int32(i+1), 5, star.Hosts[i], dst, 0)
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

		fmt.Printf("%-22s %8.1fus %8.1fus %10dKB %9.2fGbps\n",
			scheme, rtt.Min(), rtt.Max(), maxQ/1024, goodput/1e9)
	}

	star := topo.NewStar(*n+1, topo.Gbps(10), 5*sim.Microsecond)
	base := star.Graph.Diameter(1500)
	bdp := 10e9 * base.Seconds() / 8
	fmt.Printf("\nreference: baseRTT %.1f us, 3·BDP = %.0f KB (uFAB's inflight bound, §3.4)\n",
		base.Micros(), 3*bdp/1024)
}
