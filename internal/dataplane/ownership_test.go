package dataplane_test

import (
	"fmt"
	"testing"

	"ufab/internal/baseline/host"
	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// The ownership contract — nobody reads a packet after giving it up, and the
// network gets back every packet it handed out — is checked on whole fabrics,
// not assumed: each runs an incast through a link flap, a lossy link and a
// node failure, once as is and once with every released packet poisoned, and
// must report the same thing to the last RTT sample; and when its traffic has
// drained, no pool-born packet may be outstanding.

// incastHosts picks the senders of an 8-to-1 incast into the last host of a
// k=4 fat tree: every host of the first two pods, so all of it crosses the
// core.
func incastHosts(ft *topo.Clos) (senders []topo.NodeID, sink topo.NodeID) {
	return ft.Hosts[:8], ft.Hosts[len(ft.Hosts)-1]
}

// disturb schedules the faults on the coordinator: an agg→core link of the
// senders' pod flaps twice, a ToR uplink of theirs turns lossy and corrupts
// probes for a while, and a core switch dies and comes back.
func disturb(eng sim.Scheduler, net *dataplane.Network, g *topo.Graph) {
	var flap, gray topo.LinkID = topo.NoLink, topo.NoLink
	var core topo.NodeID
	for i := range g.Links {
		l := &g.Links[i]
		src, dst := g.Node(l.Src), g.Node(l.Dst)
		if flap == topo.NoLink && src.Tier == topo.TierAgg && dst.Tier == topo.TierCore {
			flap, core = l.ID, l.Dst
		}
		if gray == topo.NoLink && src.Tier == topo.TierToR && dst.Tier == topo.TierAgg {
			gray = l.ID
		}
	}
	us := sim.Microsecond
	for _, at := range []sim.Time{300 * us, 900 * us} {
		eng.At(at, func() { net.FailLink(flap) })
		eng.At(at+200*us, func() { net.RecoverLink(flap) })
	}
	eng.At(500*us, func() {
		net.DegradeLink(gray, dataplane.Degradation{LossProb: 0.05, ProbeDropProb: 0.1, ProbeCorruptProb: 0.3})
	})
	eng.At(1500*us, func() { net.RestoreLink(gray) })
	eng.At(1200*us, func() { net.FailNode(core + 1) })
	eng.At(1600*us, func() { net.RecoverNode(core + 1) })
}

const (
	incastBytes   = 400_000
	incastHorizon = 40 * sim.Millisecond
)

// runUFAB runs the μFAB incast on workers workers and returns its report and
// the network, for the balance check.
func runUFAB(t *testing.T, workers int, poison bool) (string, *dataplane.Network) {
	t.Helper()
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: ft.Graph, Cfg: vfabric.Config{Seed: 3}, Shards: workers})
	if err != nil {
		t.Fatal(err)
	}
	f.Net.PoisonReleased(poison)
	senders, sink := incastHosts(ft)
	vf := f.AddVF(1, 1e9, 0)
	for _, src := range senders {
		fl := f.AddFlow(vf, src, sink, 0)
		fl.Pair.RTT = &stats.Samples{}
		fl.Buffer.Add(incastBytes)
	}
	disturb(f.Eng, f.Net, ft.Graph)
	f.StartCoreCleanup()
	f.Eng.RunUntil(incastHorizon)

	rep := fmt.Sprintf("events %d drops %d fault drops %d corrupted %d\n",
		f.Eng.(sim.StatsSource).Stats().Processed, f.Net.TotalDrops, f.Net.FaultDrops, f.Net.CorruptedProbes)
	for _, fl := range f.Flows {
		p := fl.Pair
		if p.Delivered != incastBytes {
			t.Errorf("pair %d delivered %d of %d bytes", p.ID, p.Delivered, incastBytes)
		}
		rep += fmt.Sprintf("pair %d: delivered %d sent %d losses %d migrations %d path %d rtt n=%d mean=%v max=%v\n",
			p.ID, p.Delivered, p.SentBytes, p.Losses, p.Migrations, p.ActivePathID(), p.RTT.Len(), p.RTT.Mean(), p.RTT.Max())
	}
	for _, h := range []topo.NodeID{senders[0], sink} {
		e := f.Edge(h)
		rep += fmt.Sprintf("edge %d: probes %d probe bytes %d data bytes %d\n",
			h, e.ProbesSentCount(), e.ProbeBytesCount(), e.DataBytesCount())
	}
	return rep, f.Net
}

// runBaseline is the same incast under PicNIC′+WCC+Clove on a plain engine,
// with buffers shallow enough to tail-drop.
func runBaseline(t *testing.T, poison bool) (string, *dataplane.Network) {
	t.Helper()
	ft := topo.FatTree(4, topo.Gbps(10), sim.Microsecond)
	eng := sim.New()
	f := host.NewFabric(eng, ft.Graph, host.Config{Scheme: host.PWC, Seed: 3}, dataplane.Config{QueueCapBytes: 30_000})
	f.Net.PoisonReleased(poison)
	senders, sink := incastHosts(ft)
	for _, src := range senders {
		fh := f.AddFlow(1, 10, src, sink, 0)
		fh.Flow.RTT = &stats.Samples{}
		fh.Buffer.Add(incastBytes)
	}
	disturb(eng, f.Net, ft.Graph)
	eng.RunUntil(incastHorizon)

	rep := fmt.Sprintf("events %d drops %d fault drops %d corrupted %d\n",
		eng.Stats().Processed, f.Net.TotalDrops, f.Net.FaultDrops, f.Net.CorruptedProbes)
	overflowed := false
	for i := range f.Net.Ports {
		overflowed = overflowed || f.Net.Ports[i].Drops > 0
	}
	if !overflowed {
		t.Error("no port overflowed: the tail-drop site did not fire")
	}
	for _, fh := range f.Flows {
		fl := fh.Flow
		if fl.Delivered < incastBytes {
			t.Errorf("flow %d delivered %d of %d bytes", fl.ID, fl.Delivered, incastBytes)
		}
		rep += fmt.Sprintf("flow %d: delivered %d sent %d losses %d repicks %d rtt n=%d mean=%v max=%v\n",
			fl.ID, fl.Delivered, fl.SentBytes, fl.Losses, fl.Repicks(), fl.RTT.Len(), fl.RTT.Mean(), fl.RTT.Max())
	}
	return rep, f.Net
}

func TestNobodyReadsAReleasedPacket(t *testing.T) {
	fabrics := map[string]func(poison bool) (string, *dataplane.Network){
		"μFAB, 0 workers": func(p bool) (string, *dataplane.Network) { return runUFAB(t, 0, p) },
		"μFAB, 4 workers": func(p bool) (string, *dataplane.Network) { return runUFAB(t, 4, p) },
		"PWC baseline":    func(p bool) (string, *dataplane.Network) { return runBaseline(t, p) },
	}
	var ufab []string
	for name, run := range fabrics {
		clean, net := run(false)
		poisoned, _ := run(true)
		if clean != poisoned {
			t.Errorf("%s: poisoning released packets changed the run:\n--- as is\n%s--- poisoned\n%s", name, clean, poisoned)
		}
		if net.TotalDrops == 0 || net.FaultDrops == 0 {
			t.Errorf("%s: %d drops, %d of them at faults: the drop sites did not fire", name, net.TotalDrops, net.FaultDrops)
		}
		// Pool balance: the traffic has drained (every byte is delivered and
		// the pairs have said their finish probes), so whatever was handed
		// out has come back, and is there to be handed out again.
		if live, free := net.LivePackets(), net.PooledPackets(); live != 0 || free == 0 {
			t.Errorf("%s: %d pool-born packets outstanding after the drain, %d on the free lists", name, live, free)
		}
		if name != "PWC baseline" {
			ufab = append(ufab, clean)
		}
	}
	if len(ufab) == 2 && ufab[0] != ufab[1] {
		t.Errorf("μFAB reports differ between 0 and 4 workers:\n%s---\n%s", ufab[0], ufab[1])
	}
}
