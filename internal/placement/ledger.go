// Package placement is μFAB's tenant lifecycle control plane: it decides
// whether a tenant fits (admission control against a per-link subscription
// ledger), where its VMs go (pluggable placement policies), and drives
// large-scale open-loop churn over a simulated fleet. The paper assumes an
// admitted tenant set whose Σ-guarantees respect every link's capacity
// (the precondition of the Eqn-1 hose guarantee and the invariant the
// μFAB-C Φ_l registers meter at run time); this package is the layer that
// establishes it before the data plane ever sees a packet.
//
// Ledger is the one account of that precondition in the tree and
// Allocator the one transaction that changes it: validate → policy →
// ledger headroom → materialize → host slots, and the inverse. The
// in-simulation Controller here (a FIFO decision queue and recorder events
// on top) and the always-on ctlplane.Service (desired records, store and
// reconciler on top) both place, recover and tear down tenants through
// Allocator, so every check, rollback and rejection reason exists once.
// The ledger is a single mutex rather than a striped structure because
// every caller is already serialized (see the Ledger doc).
//
// The package sits beside vfabric, not above it: admitted tenants
// materialize through the chaos.TenantSpec churn surface (any
// Materializer — vfabric.Fabric implements it), and the read side of the
// ledger plugs into vfabric's auditor as the ledger_bound invariant.
package placement

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"ufab/internal/topo"
)

// Pair is one VM-pair of a tenant placement: traffic from the VM on Src
// to the VM on Dst.
type Pair struct {
	Src, Dst topo.NodeID
}

// Sentinel errors the ledger and the Allocator return or wrap, so callers
// map a failure to a rejection reason (Reason) without string matching.
var (
	// ErrHeadroom: a link would exceed the oversubscribed admission budget.
	ErrHeadroom = errors.New("headroom")
	// ErrDuplicate: the tenant id already holds a commitment.
	ErrDuplicate = errors.New("duplicate tenant")
	// ErrInvalid: malformed request (non-positive guarantee, a pair that is
	// unroutable or whose endpoint is not a host of the graph).
	ErrInvalid = errors.New("invalid request")
	// ErrPlacement: no feasible hosts — the fleet cannot hold the VMs, or
	// the given hosts are not distinct, routable fleet hosts. A pair the
	// ledger cannot route wraps it together with ErrInvalid.
	ErrPlacement = errors.New("no feasible placement")
	// ErrMaterialize: the fabric refused the spec; the transaction rolled
	// the ledger commitment back.
	ErrMaterialize = errors.New("fabric refused the tenant")
)

// Ledger is the per-link Σ-guarantee subscription account — the only one
// in the tree. For every admitted tenant it commits the tenant's hose
// guarantee G on every link of each VM-pair's ECMP path union — a
// conservative upper bound on the Φ_l·BU the pair can ever register,
// since μFAB-E samples its candidate paths from exactly that equal-cost
// set and registers at most G per pair per link. Admit owns the headroom
// check; Commit and Release are incremental: O(affected links), never a
// full recompute. Verify recomputes from scratch as the reference.
//
// All methods are safe for concurrent use: one mutex covers the account,
// the delta scratch and the graph's path memo (which Paths fills lazily),
// so an Admit's check-then-commit is atomic and two racing admissions can
// never jointly overshoot a link. One lock is deliberate — every caller in
// the tree is already serialized (the simulation engine goroutine, or
// ctlplane.Service's own mutex), so nothing contends on it.
type Ledger struct {
	// Oversubscription scales every link's admission budget in Admit and
	// Fits (0 = 1.0, the paper's predictability precondition; >1
	// deliberately oversubscribes). Set it before the first admission.
	Oversubscription float64

	g *topo.Graph
	// maxPaths bounds the per-pair ECMP enumeration (0 = the full
	// equal-cost set, a superset of what μFAB-E samples).
	maxPaths int

	mu        sync.Mutex
	committed []float64 // bps, indexed by LinkID
	tenants   map[int32]*ledgerEntry

	// Scratch for delta computation, reused across calls.
	stamp   []int64
	seq     int64
	scratch []float64
	touched []topo.LinkID
}

// ledgerEntry stores a tenant's inputs (for Verify's recompute) and the
// exact per-link amounts committed (so Release subtracts precisely what
// Commit added, leaving zero residue).
type ledgerEntry struct {
	guaranteeBps float64
	pairs        []Pair
	links        []topo.LinkID
	amounts      []float64
}

// NewLedger creates a ledger over the graph. maxPaths bounds the ECMP
// enumeration per pair (0 = all equal-cost paths).
func NewLedger(g *topo.Graph, maxPaths int) *Ledger {
	n := len(g.Links)
	return &Ledger{
		g:         g,
		maxPaths:  maxPaths,
		committed: make([]float64, n),
		tenants:   make(map[int32]*ledgerEntry),
		stamp:     make([]int64, n),
		scratch:   make([]float64, n),
	}
}

// delta computes the per-link commitment of (guaranteeBps, pairs) into
// the reusable scratch buffers and returns the touched links sorted by
// id, in freshly allocated slices. Each pair contributes G once per link
// of its ECMP path union (multiple candidate paths sharing a link count
// once, matching the μFAB-C register's per-pair dedup); separate pairs
// sharing a link each contribute. mu must be held.
func (l *Ledger) delta(guaranteeBps float64, pairs []Pair) ([]topo.LinkID, []float64, error) {
	l.touched = l.touched[:0]
	for _, pr := range pairs {
		// Endpoints come from files and sockets (scenario specs, store
		// records): vet them before the graph indexes by them.
		var paths []topo.Path
		if l.isHost(pr.Src) && l.isHost(pr.Dst) {
			paths = l.g.Paths(pr.Src, pr.Dst, l.maxPaths)
		}
		if len(paths) == 0 {
			for _, lid := range l.touched {
				l.scratch[lid] = 0 // reset for the next call
			}
			return nil, nil, fmt.Errorf("placement: no path %d→%d: %w, %w", pr.Src, pr.Dst, ErrInvalid, ErrPlacement)
		}
		l.seq++
		for _, p := range paths {
			for _, lid := range p {
				if l.stamp[lid] != l.seq {
					// First time this pair sees the link.
					l.stamp[lid] = l.seq
					if l.scratch[lid] == 0 {
						l.touched = append(l.touched, lid)
					}
					l.scratch[lid] += guaranteeBps
				}
			}
		}
	}
	slices.Sort(l.touched)
	amounts := make([]float64, len(l.touched))
	links := make([]topo.LinkID, len(l.touched))
	for i, lid := range l.touched {
		links[i] = lid
		amounts[i] = l.scratch[lid]
		l.scratch[lid] = 0 // reset for the next call
	}
	return links, amounts, nil
}

// isHost reports whether n names a host of the graph.
func (l *Ledger) isHost(n topo.NodeID) bool {
	return n >= 0 && int(n) < len(l.g.Nodes) && l.g.Nodes[n].Kind == topo.Host
}

// overBudget is the one headroom comparison: it returns the first link on
// which committed + delta would exceed Oversubscription × capacity. mu
// must be held.
func (l *Ledger) overBudget(links []topo.LinkID, amounts []float64) (topo.LinkID, bool) {
	oversub := l.Oversubscription
	if oversub == 0 {
		oversub = 1.0
	}
	for i, lid := range links {
		budget := oversub * l.g.Links[lid].Capacity
		if l.committed[lid]+amounts[i] > budget+1e-9 {
			return lid, true
		}
	}
	return 0, false
}

// Evaluate returns, without committing anything, the links a placement
// would touch and the bps it would add to each. The returned slices are
// freshly allocated; an error (wrapping ErrInvalid) means a pair has no
// path or an endpoint that is not a host of the graph.
func (l *Ledger) Evaluate(guaranteeBps float64, pairs []Pair) ([]topo.LinkID, []float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.delta(guaranteeBps, pairs)
}

// Fits answers the what-if Admit would decide, committing nothing: nil
// when the placement is routable and within budget on every link, else an
// error wrapping ErrInvalid or ErrHeadroom.
func (l *Ledger) Fits(guaranteeBps float64, pairs []Pair) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	links, amounts, err := l.delta(guaranteeBps, pairs)
	if err != nil {
		return err
	}
	if hot, over := l.overBudget(links, amounts); over {
		return fmt.Errorf("placement: link %d over budget: %w", hot, ErrHeadroom)
	}
	return nil
}

// Commit admits a tenant unconditionally — no budget check: its guarantee
// is added to every link of each pair's ECMP union. Errors (ErrDuplicate,
// ErrInvalid) leave the ledger untouched.
func (l *Ledger) Commit(id int32, guaranteeBps float64, pairs []Pair) error {
	return l.admit(id, guaranteeBps, pairs, false)
}

// Admit is Commit behind the headroom check: the tenant is committed only
// while committed + delta ≤ Oversubscription × capacity on every affected
// link, decided and applied under one lock. On any failure the ledger is
// untouched; the error wraps ErrDuplicate, ErrInvalid or ErrHeadroom.
func (l *Ledger) Admit(id int32, guaranteeBps float64, pairs []Pair) error {
	return l.admit(id, guaranteeBps, pairs, true)
}

func (l *Ledger) admit(id int32, guaranteeBps float64, pairs []Pair, budgeted bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if guaranteeBps <= 0 {
		return fmt.Errorf("placement: tenant %d guarantee %v: %w", id, guaranteeBps, ErrInvalid)
	}
	if l.tenants[id] != nil {
		return fmt.Errorf("placement: tenant %d: %w", id, ErrDuplicate)
	}
	links, amounts, err := l.delta(guaranteeBps, pairs)
	if err != nil {
		return err
	}
	if budgeted {
		if hot, over := l.overBudget(links, amounts); over {
			return fmt.Errorf("placement: tenant %d link %d over budget: %w", id, hot, ErrHeadroom)
		}
	}
	for i, lid := range links {
		l.committed[lid] += amounts[i]
	}
	e := &ledgerEntry{guaranteeBps: guaranteeBps, links: links, amounts: amounts}
	e.pairs = append(e.pairs, pairs...)
	l.tenants[id] = e
	return nil
}

// Release withdraws a tenant's commitment, subtracting exactly the
// amounts Commit added. Returns false for an unknown id.
func (l *Ledger) Release(id int32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.tenants[id]
	if e == nil {
		return false
	}
	for i, lid := range e.links {
		l.committed[lid] -= e.amounts[i]
		// Clamp float residue so long churn runs can't drift below zero.
		if l.committed[lid] < 0 && l.committed[lid] > -1e-6 {
			l.committed[lid] = 0
		}
	}
	delete(l.tenants, id)
	return true
}

// Graph returns the topology the ledger accounts over.
func (l *Ledger) Graph() *topo.Graph { return l.g }

// Has reports whether the tenant currently holds a commitment.
func (l *Ledger) Has(id int32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tenants[id] != nil
}

// Tenants returns the number of tenants currently committed.
func (l *Ledger) Tenants() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tenants)
}

// CommittedBps returns the Σ-guarantee currently committed on the link,
// in bits per second. It implements vfabric.SubscriptionLedger.
func (l *Ledger) CommittedBps(lid topo.LinkID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed[lid]
}

// Subscription returns the link's committed subscription as a fraction of
// its physical capacity.
func (l *Ledger) Subscription(lid topo.LinkID) float64 {
	return l.CommittedBps(lid) / l.g.Link(lid).Capacity
}

// MaxSubscription returns the highest committed/capacity ratio across all
// links, the fleet's bottleneck subscription.
func (l *Ledger) MaxSubscription() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	max := 0.0
	for i := range l.committed {
		if s := l.committed[i] / l.g.Links[i].Capacity; s > max {
			max = s
		}
	}
	return max
}

// MeanSubscription returns the mean committed/capacity ratio across all
// links — the fleet's committed utilization.
func (l *Ledger) MeanSubscription() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.committed) == 0 {
		return 0
	}
	sum := 0.0
	for i := range l.committed {
		sum += l.committed[i] / l.g.Links[i].Capacity
	}
	return sum / float64(len(l.committed))
}

// Verify recomputes every link's commitment from scratch from the stored
// tenant inputs (in ascending id order) and compares it with the
// incrementally maintained state. It returns the first discrepancy found
// (nil when consistent). It is the reference the incremental path is
// tested against: O(tenants × pairs × paths), holding the lock throughout.
func (l *Ledger) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int32, 0, len(l.tenants))
	for id := range l.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	full := make([]float64, len(l.committed))
	for _, id := range ids {
		e := l.tenants[id]
		links, amounts, err := l.delta(e.guaranteeBps, e.pairs)
		if err != nil {
			return fmt.Errorf("placement: verify: tenant %d: %v", id, err)
		}
		for i, lid := range links {
			full[lid] += amounts[i]
		}
	}
	for i := range full {
		diff := l.committed[i] - full[i]
		if diff < 0 {
			diff = -diff
		}
		tol := 1e-6 * (1 + full[i])
		if diff > tol {
			return fmt.Errorf("placement: verify: link %d incremental %v != recomputed %v",
				i, l.committed[i], full[i])
		}
	}
	return nil
}

// ChainPairs materializes the hose model over an ordered host list: VM i
// sends to VM i+1, giving every host at most one outgoing pair — so the
// per-host hose constraint (a VM sends at most G) maps exactly onto one
// committed pair per source.
func ChainPairs(hosts []topo.NodeID) []Pair {
	if len(hosts) < 2 {
		return nil
	}
	pairs := make([]Pair, 0, len(hosts)-1)
	for i := 0; i+1 < len(hosts); i++ {
		pairs = append(pairs, Pair{Src: hosts[i], Dst: hosts[i+1]})
	}
	return pairs
}
