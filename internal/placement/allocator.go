package placement

import (
	"errors"

	"ufab/internal/chaos"
	"ufab/internal/topo"
)

// Request asks the control plane to admit one tenant: a hose guarantee per
// VM, a VM count (materialized as a chain of VM-pairs), and a WFQ weight
// class. The JSON tags are the northbound API's admit/evaluate body.
type Request struct {
	// ID becomes the tenant's VF id; it must be unique among admitted
	// tenants.
	ID int32 `json:"id"`
	// GuaranteeBps is the per-VM hose guarantee.
	GuaranteeBps float64 `json:"guarantee_bps"`
	// VMs is how many VMs to place (each on a distinct host).
	VMs int `json:"vms"`
	// WeightClass is the WFQ class (0..7).
	WeightClass int `json:"weight_class"`
	// BacklogBytes per materialized pair; <= 0 means effectively infinite.
	BacklogBytes int64 `json:"backlog_bytes"`
}

// Materializer turns an admitted spec into data-plane state.
// *vfabric.Fabric implements it; ledger-only studies leave it nil.
type Materializer interface {
	AddTenant(spec chaos.TenantSpec) bool
	RemoveTenant(vf int32) bool
}

// Reason is the one mapping from a transaction error to the rejection
// reason the front-ends report ("" for nil). A pair the ledger cannot route
// wraps both errInvalid and errPlacement and reads "placement": the request
// itself is vetted before the ledger sees its hosts, so only the hosts can
// be at fault.
func Reason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errHeadroom):
		return "headroom"
	case errors.Is(err, errDuplicate):
		return "duplicate"
	case errors.Is(err, errPlacement):
		return "placement"
	case errors.Is(err, errMaterialize):
		return "materialize"
	default:
		return "invalid"
	}
}

// Allocator is the one admission transaction: the sequence that
// establishes the Eqn-1 precondition for a tenant — validate → policy →
// ledger headroom → materialize → host slots — and its inverse. The
// in-simulation Controller and the always-on ctlplane.Service both place,
// recover and tear down tenants through it, so every check and every
// rollback exists once. It owns the ledger, the fleet's slot occupancy and
// the record of which slots each realized tenant holds; callers keep only
// what is theirs (a decision queue, desired records). Not safe for
// concurrent use beyond what the Ledger itself guarantees: both callers
// serialize.
type Allocator struct {
	ledger *Ledger
	fleet  *Fleet
	policy Policy
	mat    Materializer

	// hostsOf are the slots each realized tenant holds, so Withdraw
	// returns exactly what Realize/Restore took.
	hostsOf map[int32][]topo.NodeID

	// stage observes each step of commit as it completes ("place",
	// "commit", "materialize"). The Controller points it at its flight
	// recorder, which keeps the steps in order relative to the
	// materializer's own events; otherwise it does nothing.
	stage func(id int32, note string, span uint64)
}

// NewAllocator builds the transaction over the graph from the shared part
// of cfg (Oversubscription, default 1.0; SlotsPerHost, default 8; MaxPaths;
// Policy, default firstFit). mat may be nil: ledger-only operation.
func NewAllocator(g *topo.Graph, mat Materializer, cfg Config) *Allocator {
	if cfg.Oversubscription == 0 {
		cfg.Oversubscription = 1.0
	}
	if cfg.SlotsPerHost == 0 {
		cfg.SlotsPerHost = 8
	}
	if cfg.Policy == nil {
		cfg.Policy = firstFit{}
	}
	a := &Allocator{
		ledger:  NewLedger(g, cfg.MaxPaths),
		fleet:   NewFleet(g, cfg.SlotsPerHost),
		policy:  cfg.Policy,
		mat:     mat,
		hostsOf: make(map[int32][]topo.NodeID),
		stage:   func(int32, string, uint64) {},
	}
	a.ledger.Oversubscription = cfg.Oversubscription
	return a
}

// Ledger exposes the subscription account (read side for the auditor's
// ledger_bound invariant and for experiments).
func (a *Allocator) Ledger() *Ledger { return a.ledger }

// Fleet exposes the slot-occupancy view; callers may cordon hosts through
// it but never touch Used.
func (a *Allocator) Fleet() *Fleet { return a.fleet }

// place validates the request and asks the policy for hosts. The VM count
// is bounded by the fleet before any policy runs: VMs land on distinct
// hosts, so a larger count can never fit, and policies size their working
// sets by it.
func (a *Allocator) place(req Request) ([]topo.NodeID, error) {
	if err := a.check(req); err != nil {
		return nil, err
	}
	hosts := a.policy.Place(req, a.fleet, a.ledger)
	if len(hosts) != req.VMs {
		return nil, errPlacement
	}
	return hosts, nil
}

func (a *Allocator) check(req Request) error {
	switch {
	case req.GuaranteeBps <= 0 || req.VMs < 1:
		return errInvalid
	case a.ledger.has(req.ID):
		return errDuplicate
	case req.VMs > len(a.fleet.Hosts):
		return errPlacement
	}
	return nil
}

// Propose answers the what-if: the hosts the policy would pick and whether
// the ledger has headroom for them right now. Nothing is committed.
func (a *Allocator) Propose(req Request) ([]topo.NodeID, error) {
	hosts, err := a.place(req)
	if err != nil {
		return nil, err
	}
	if err := a.ledger.fits(req.GuaranteeBps, chainPairs(hosts)); err != nil {
		return nil, err
	}
	return hosts, nil
}

// Realize admits the request on policy-chosen hosts: ledger commitment,
// fabric state and host slots are all taken, or — on any error — none is.
// It returns the hosts and the committed chain.
func (a *Allocator) Realize(req Request) ([]topo.NodeID, []Pair, error) {
	hosts, err := a.place(req)
	if err != nil {
		return nil, nil, err
	}
	pairs, err := a.commit(req, hosts)
	if err != nil {
		return nil, nil, err
	}
	return hosts, pairs, nil
}

// Restore is Realize on recorded hosts (a store record after a restart)
// instead of the policy's: the same commit, after checking that the record
// names req.VMs distinct hosts of this fleet.
func (a *Allocator) Restore(req Request, hosts []topo.NodeID) ([]Pair, error) {
	if err := a.check(req); err != nil {
		return nil, err
	}
	if len(hosts) != req.VMs {
		return nil, errPlacement
	}
	seen := make([]bool, len(a.fleet.Hosts))
	for _, h := range hosts {
		i := a.fleet.HostIndex(h)
		if i < 0 || seen[i] {
			return nil, errPlacement
		}
		seen[i] = true
	}
	return a.commit(req, hosts)
}

// commit is the transaction body: budgeted ledger admission, fabric
// materialization with ledger rollback, then the host slots.
func (a *Allocator) commit(req Request, hosts []topo.NodeID) ([]Pair, error) {
	a.stage(req.ID, "place", 2)
	pairs := chainPairs(hosts)
	if err := a.ledger.Admit(req.ID, req.GuaranteeBps, pairs); err != nil {
		return nil, err
	}
	a.stage(req.ID, "commit", 3)
	if a.mat != nil {
		if !a.mat.AddTenant(tenantSpec(req, pairs)) {
			a.ledger.Release(req.ID)
			return nil, errMaterialize
		}
		a.stage(req.ID, "materialize", 4)
	}
	a.fleet.Place(hosts)
	a.hostsOf[req.ID] = hosts
	return pairs, nil
}

// Withdraw tears an admitted tenant down: data-plane state first (finish
// probes drain its registers), then the ledger commitment and host slots.
// Returns false for a tenant the ledger does not hold.
func (a *Allocator) Withdraw(id int32) bool {
	if !a.ledger.has(id) {
		return false
	}
	if a.mat != nil {
		a.mat.RemoveTenant(id)
	}
	return a.release(id)
}

// release returns the ledger commitment and any host slots without
// touching the fabric — all of Withdraw for a tenant whose data-plane
// state someone else owns (chaos.Admission).
func (a *Allocator) release(id int32) bool {
	if !a.ledger.Release(id) {
		return false
	}
	if hosts, ok := a.hostsOf[id]; ok {
		a.fleet.Release(hosts)
		delete(a.hostsOf, id)
	}
	return true
}

// tenantSpec converts an accepted request + chain into the churn surface's
// tenant spec.
func tenantSpec(req Request, pairs []Pair) chaos.TenantSpec {
	sp := chaos.TenantSpec{
		VF:           req.ID,
		GuaranteeBps: req.GuaranteeBps,
		WeightClass:  req.WeightClass,
	}
	for _, p := range pairs {
		sp.Pairs = append(sp.Pairs, chaos.PairSpec{
			Src: p.Src, Dst: p.Dst, BacklogBytes: req.BacklogBytes,
		})
	}
	return sp
}
