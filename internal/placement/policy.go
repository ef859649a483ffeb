package placement

import (
	"ufab/internal/topo"
)

// Fleet is the placement-time view of the hosts: static grouping (which
// ToR each host hangs off) plus the controller-maintained slot occupancy.
// Policies read it; only the controller mutates it.
type Fleet struct {
	// Hosts lists every host in graph order; Used and ToRGroup are
	// parallel to it.
	Hosts []topo.NodeID
	// Used is the number of VMs currently placed on each host.
	Used []int
	// SlotsPerHost caps VMs per host.
	SlotsPerHost int
	// ToRGroup is each host's rack index (hosts under the same ToR share
	// one), the spread policy's failure/contention domain.
	ToRGroup []int
	// Groups is the number of distinct ToR groups.
	Groups int
	// Unschedulable marks hosts no policy may place onto — failed nodes
	// and hosts being drained. Existing placements are unaffected; the
	// reconciler evacuates them separately.
	Unschedulable []bool

	index map[topo.NodeID]int
}

// NewFleet derives the fleet view from the graph: hosts in graph order,
// grouped by the switch their first uplink reaches.
func NewFleet(g *topo.Graph, slotsPerHost int) *Fleet {
	f := &Fleet{SlotsPerHost: slotsPerHost, index: make(map[topo.NodeID]int)}
	torOf := make(map[topo.NodeID]int)
	for _, n := range g.Nodes {
		if n.Kind != topo.Host || len(n.Out) == 0 {
			continue
		}
		tor := g.Link(n.Out[0]).Dst
		grp, ok := torOf[tor]
		if !ok {
			grp = f.Groups
			torOf[tor] = grp
			f.Groups++
		}
		f.index[n.ID] = len(f.Hosts)
		f.Hosts = append(f.Hosts, n.ID)
		f.ToRGroup = append(f.ToRGroup, grp)
	}
	f.Used = make([]int, len(f.Hosts))
	f.Unschedulable = make([]bool, len(f.Hosts))
	return f
}

// free reports whether host index i can accept another VM.
func (f *Fleet) free(i int) bool {
	return !f.Unschedulable[i] && f.Used[i] < f.SlotsPerHost
}

// FreeSlots returns the total free VM slots across schedulable hosts.
func (f *Fleet) FreeSlots() int {
	n := 0
	for i, u := range f.Used {
		if f.Unschedulable[i] {
			continue
		}
		if s := f.SlotsPerHost - u; s > 0 {
			n += s
		}
	}
	return n
}

// SetUnschedulable cordons (or uncordons) a host; unknown hosts are
// ignored. Returns whether the host is part of the fleet.
func (f *Fleet) SetUnschedulable(h topo.NodeID, v bool) bool {
	i, ok := f.index[h]
	if !ok {
		return false
	}
	f.Unschedulable[i] = v
	return true
}

// HostIndex returns the fleet index of a host (-1 if unknown).
func (f *Fleet) HostIndex(h topo.NodeID) int {
	i, ok := f.index[h]
	if !ok {
		return -1
	}
	return i
}

// Place/Release update occupancy for a decided placement. A host outside
// the fleet is skipped, never charged to another host's slot.
func (f *Fleet) Place(hosts []topo.NodeID) {
	for _, h := range hosts {
		if i, ok := f.index[h]; ok {
			f.Used[i]++
		}
	}
}

func (f *Fleet) Release(hosts []topo.NodeID) {
	for _, h := range hosts {
		if i, ok := f.index[h]; ok {
			f.Used[i]--
		}
	}
}

// Policy picks hosts for a tenant's VMs. Place returns one distinct host
// per VM (nil when the fleet cannot host the request); it must not mutate
// the fleet or the ledger — the controller commits the outcome after the
// headroom check passes. Implementations must be deterministic.
type Policy interface {
	Name() string
	Place(req Request, fleet *Fleet, ledger *Ledger) []topo.NodeID
}

// ---- first-fit -------------------------------------------------------------

// firstFit packs VMs onto the lowest-numbered hosts with free slots —
// the densest (and most contention-prone) baseline.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

func (firstFit) Place(req Request, fleet *Fleet, _ *Ledger) []topo.NodeID {
	var hosts []topo.NodeID
	for i := range fleet.Hosts {
		if fleet.free(i) {
			hosts = append(hosts, fleet.Hosts[i])
			if len(hosts) == req.VMs {
				return hosts
			}
		}
	}
	return nil
}

// ---- spread ----------------------------------------------------------------

// Spread stripes a tenant's VMs across ToR groups round-robin, starting
// at a request-derived offset so successive tenants don't all start in
// rack 0. Within a group it picks the least-used host (lowest id on tie).
type Spread struct{}

func (Spread) Name() string { return "spread" }

func (Spread) Place(req Request, fleet *Fleet, _ *Ledger) []topo.NodeID {
	if fleet.Groups == 0 {
		return nil
	}
	taken := make(map[topo.NodeID]bool, req.VMs)
	var hosts []topo.NodeID
	start := int(req.ID) % fleet.Groups
	if start < 0 {
		start += fleet.Groups
	}
	for round := 0; len(hosts) < req.VMs; round++ {
		progressed := false
		for gi := 0; gi < fleet.Groups && len(hosts) < req.VMs; gi++ {
			grp := (start + gi) % fleet.Groups
			// Least-used free host of this group not already taken.
			best := -1
			for i := range fleet.Hosts {
				if fleet.ToRGroup[i] != grp || !fleet.free(i) || taken[fleet.Hosts[i]] {
					continue
				}
				if best < 0 || fleet.Used[i] < fleet.Used[best] {
					best = i
				}
			}
			if best >= 0 {
				hosts = append(hosts, fleet.Hosts[best])
				taken[fleet.Hosts[best]] = true
				progressed = true
			}
		}
		if !progressed {
			return nil // fleet exhausted before req.VMs distinct hosts
		}
	}
	return hosts
}

// ---- subscription-aware ----------------------------------------------------

// subscriptionAware mirrors μFAB-E's subscription-aware path migration at
// placement time: VMs are placed one at a time, and each candidate host
// is scored by the maximum post-admission link subscription the new
// chain pair (previous VM's host → candidate) would cause. The candidate
// minimizing that bottleneck wins (least-used host on tie, then lowest
// id). The first VM anchors on the least-used free host.
type subscriptionAware struct{}

func (subscriptionAware) Name() string { return "subscription-aware" }

func (subscriptionAware) Place(req Request, fleet *Fleet, ledger *Ledger) []topo.NodeID {
	taken := make(map[topo.NodeID]bool, req.VMs)
	// Pending contributions of the pairs this placement has already
	// decided, per link.
	pending := make(map[topo.LinkID]float64)
	var hosts []topo.NodeID

	anchor := -1
	for i := range fleet.Hosts {
		if !fleet.free(i) {
			continue
		}
		if anchor < 0 || fleet.Used[i] < fleet.Used[anchor] {
			anchor = i
		}
	}
	if anchor < 0 {
		return nil
	}
	hosts = append(hosts, fleet.Hosts[anchor])
	taken[fleet.Hosts[anchor]] = true

	onePair := make([]Pair, 1)
	for len(hosts) < req.VMs {
		prev := hosts[len(hosts)-1]
		best := -1
		var bestScore float64
		for i := range fleet.Hosts {
			h := fleet.Hosts[i]
			if !fleet.free(i) || taken[h] {
				continue
			}
			onePair[0] = Pair{Src: prev, Dst: h}
			links, amounts, err := ledger.Evaluate(req.GuaranteeBps, onePair)
			if err != nil {
				continue
			}
			score := 0.0
			for j, lid := range links {
				sub := (ledger.CommittedBps(lid) + pending[lid] + amounts[j]) /
					ledger.Graph().Link(lid).Capacity
				if sub > score {
					score = sub
				}
			}
			if best < 0 || score < bestScore ||
				(score == bestScore && fleet.Used[i] < fleet.Used[best]) {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return nil
		}
		h := fleet.Hosts[best]
		onePair[0] = Pair{Src: prev, Dst: h}
		links, amounts, _ := ledger.Evaluate(req.GuaranteeBps, onePair)
		for j, lid := range links {
			pending[lid] += amounts[j]
		}
		hosts = append(hosts, h)
		taken[h] = true
	}
	return hosts
}

// PolicyByName resolves a policy name ("first-fit", "spread",
// "subscription-aware"); nil for unknown names.
func PolicyByName(name string) Policy {
	switch name {
	case "first-fit":
		return firstFit{}
	case "spread":
		return Spread{}
	case "subscription-aware":
		return subscriptionAware{}
	}
	return nil
}
