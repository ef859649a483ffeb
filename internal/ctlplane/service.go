// Package ctlplane is the always-on tenant control plane: it wraps
// internal/placement's admission/placement machinery in a long-lived
// service with the controller/watcher/store layering of production
// network control planes. Desired tenant state (what was admitted) lives
// in a persistent store (JSONL WAL + snapshot); realized state (ledger
// commitments, fleet slots, materialized VFs) is continuously converged
// toward it by a reconciler that re-places tenants displaced by node
// failures, evacuates drained hosts, and rolls back partial
// materializations — with per-tenant status and bounded retry/backoff.
// Every change to realized state — admit, what-if, re-placement, recovery,
// teardown — is one call into placement.Allocator, the admission
// transaction the in-simulation Controller also uses; this package keeps
// only what is its own: desired records, the store, the watcher and the
// reconciler. The ledger under the transaction is a single mutex, not a
// striped or two-phase structure, because nothing reaches it concurrently:
// Service holds its own lock across every
// Admit/Evaluate/Release/reconcile/Recover, and the daemon in daemon.go
// (`ufabsim serve`) funnels every HTTP operation onto the one engine
// goroutine. The whole thing is served northbound over HTTP/JSON.
package ctlplane

import (
	"sort"
	"sync"

	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// Config parameterizes a Service.
type Config struct {
	// Oversubscription scales every link's admission budget (default 1.0,
	// the paper's predictability precondition).
	Oversubscription float64
	// SlotsPerHost caps VMs per host (default 8).
	SlotsPerHost int
	// maxPaths bounds the ledger's per-pair ECMP enumeration (0 = all).
	maxPaths int
	// Policy picks VM hosts (default Spread — the service exists to
	// survive failure domains).
	Policy placement.Policy
	// maxRetries bounds re-placement attempts before eviction (default 5).
	maxRetries int
	// retryBackoff is the base re-placement backoff, doubled per retry
	// (default 250 µs).
	retryBackoff sim.Duration
	// Telemetry, if non-nil, publishes placement.ctl.* counters.
	Telemetry *telemetry.Registry
}

// Decision is the service's verdict on one admit/evaluate call.
type Decision struct {
	Accepted bool `json:"accepted"`
	// Reason explains a rejection: "placement", "headroom",
	// "materialize", "invalid", "duplicate", "store" (the desired record
	// could not be made durable).
	Reason string `json:"reason,omitempty"`
	// Hosts are the (would-be) VM locations.
	Hosts []topo.NodeID `json:"hosts,omitempty"`
}

// Stats are the service's lifetime counters; the reconciler rows are the
// placement.ctl.* satellite metrics.
type Stats struct {
	Admitted, Rejected, Released                                int64
	ReconcileLoops, Displaced, Replacements, Retries, Evictions int64
	Desired, Placed                                             int
}

// Service owns desired tenant state and converges realized state toward
// it. All methods are safe for concurrent use; determinism-sensitive
// callers (experiments) drive it from one goroutine, where iteration
// order is fixed by sorted tenant ids.
type Service struct {
	cfg   Config
	alloc *placement.Allocator
	store *Store

	mu       sync.Mutex
	tenants  map[int32]*Tenant
	draining map[topo.NodeID]bool
	// failed is the watcher's view of fabric liveness, maintained
	// event-driven from the flight recorder's dataplane fault events
	// (WatchRecorder) rather than by polling the fabric.
	failed map[topo.NodeID]bool

	admitted, rejected, released                                int64
	reconcileLoops, displaced, replacements, retries, evictions int64
}

// NewService builds the control plane over the graph. store may be nil
// (no persistence — experiments run in-memory); mat may be nil
// (ledger-only operation).
func NewService(g *topo.Graph, store *Store, mat placement.Materializer, cfg Config) *Service {
	if cfg.Policy == nil {
		cfg.Policy = placement.Spread{}
	}
	if cfg.maxRetries == 0 {
		cfg.maxRetries = 5
	}
	if cfg.retryBackoff == 0 {
		cfg.retryBackoff = 250 * sim.Microsecond
	}
	return &Service{
		cfg: cfg,
		alloc: placement.NewAllocator(g, mat, placement.Config{
			Oversubscription: cfg.Oversubscription,
			SlotsPerHost:     cfg.SlotsPerHost,
			MaxPaths:         cfg.maxPaths,
			Policy:           cfg.Policy,
		}),
		store:    store,
		tenants:  make(map[int32]*Tenant),
		draining: make(map[topo.NodeID]bool),
		failed:   make(map[topo.NodeID]bool),
	}
}

// WatchRecorder subscribes the watcher to a flight recorder: dataplane
// node-fault events (EvFault on entity "dataplane.node", A = node id,
// B = 1 down / 0 recovered) drive the failed set that reconcile folds into
// schedulability. Wire it before faults can occur — a subscriber only sees
// events recorded after it registers. With no recorder (nil) the service
// has no failure detection; drains still work.
func (s *Service) WatchRecorder(rec *telemetry.Recorder) {
	rec.Subscribe(func(ev telemetry.Event) {
		// Filter before locking: the subscriber runs inside Record for
		// every event, including ones recorded while s.mu is held (e.g.
		// materialization churn during placeLocked).
		if ev.Kind != telemetry.EvFault || ev.Entity != "dataplane.node" {
			return
		}
		s.mu.Lock()
		if ev.B != 0 {
			s.failed[topo.NodeID(ev.A)] = true
		} else {
			delete(s.failed, topo.NodeID(ev.A))
		}
		s.mu.Unlock()
	})
}

// Ledger exposes the subscription account (read side for the auditor's
// ledger_bound invariant and for experiments).
func (s *Service) Ledger() *placement.Ledger { return s.alloc.Ledger() }

// Fleet exposes the slot-occupancy view.
func (s *Service) Fleet() *placement.Fleet { return s.alloc.Fleet() }

// Store exposes the persistence layer (nil when running in-memory).
func (s *Service) Store() *Store { return s.store }

// Admit decides one tenant request at simulated time nowPS. Accepted
// tenants are realized immediately (ledger committed, fleet slots taken,
// fabric materialized) and recorded as desired state; rejected requests
// leave no trace.
func (s *Service) Admit(req placement.Request, nowPS int64) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[req.ID] != nil {
		return s.rejectLocked("duplicate")
	}
	t := &Tenant{
		ID:           req.ID,
		GuaranteeBps: req.GuaranteeBps,
		VMs:          req.VMs,
		WeightClass:  req.WeightClass,
		BacklogBytes: req.BacklogBytes,
		Status:       statusPending,
		UpdatedPS:    nowPS,
	}
	d := s.placeLocked(t, nowPS)
	if !d.Accepted {
		return s.rejectLocked(d.Reason)
	}
	if err := s.persistPutLocked(t); err != nil {
		// An admission that is not durable would vanish on restart: tear
		// the realized state back down and withdraw whatever part of the
		// record the store did keep (a put that landed before a failed
		// checkpoint).
		s.alloc.Withdraw(t.ID)
		s.persistDeleteLocked(t.ID)
		return s.rejectLocked("store")
	}
	s.tenants[t.ID] = t
	s.admitted++
	s.flushLocked()
	return d
}

// Evaluate answers the what-if: would this request be admitted right now,
// and where would it land? Nothing is committed.
func (s *Service) Evaluate(req placement.Request) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[req.ID] != nil {
		return Decision{Reason: "duplicate"}
	}
	hosts, err := s.alloc.Propose(req)
	if err != nil {
		return Decision{Reason: placement.Reason(err)}
	}
	return Decision{Accepted: true, Hosts: hosts}
}

// Release withdraws a tenant: realized state is torn down and the desired
// record deleted. Returns false for an unknown id.
func (s *Service) Release(id int32, nowPS int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[id]
	if t == nil {
		return false
	}
	s.alloc.Withdraw(id) // a tenant that is not Placed holds nothing
	delete(s.tenants, id)
	s.persistDeleteLocked(id)
	s.released++
	s.flushLocked()
	return true
}

// Drain cordons a host and marks it for evacuation: no new placements
// land on it, and the next reconcile pass re-places every tenant with a
// VM there. Returns false for a host outside the fleet.
func (s *Service) Drain(h topo.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alloc.Fleet().SetUnschedulable(h, true) {
		return false
	}
	s.draining[h] = true
	return true
}

// Uncordon reverses Drain (already-evacuated tenants stay where the
// reconciler put them).
func (s *Service) Uncordon(h topo.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining[h] {
		return false
	}
	delete(s.draining, h)
	// Schedulability is recomputed (failed ∨ drain) next reconcile; clear
	// the drain bit now so admissions between ticks can use the host.
	if !s.failed[h] {
		s.alloc.Fleet().SetUnschedulable(h, false)
	}
	return true
}

// placeLocked attempts to realize t through the admission transaction.
// On success t becomes Placed. mu must be held.
func (s *Service) placeLocked(t *Tenant, nowPS int64) Decision {
	hosts, _, err := s.alloc.Realize(t.request())
	if err != nil {
		return Decision{Reason: placement.Reason(err)}
	}
	t.Hosts = hosts
	t.Status = StatusPlaced
	t.Retries = 0
	t.NotBeforePS = 0
	t.UpdatedPS = nowPS
	return Decision{Accepted: true, Hosts: hosts}
}

// degradeLocked records that t holds no realized state any more and is
// due for re-placement at nowPS. mu must be held.
func (s *Service) degradeLocked(t *Tenant, nowPS int64) {
	t.Hosts = nil
	t.Status = statusDegraded
	t.Retries = 0
	t.NotBeforePS = nowPS
	t.UpdatedPS = nowPS
	_ = s.persistPutLocked(t) // best effort: see persistPutLocked
}

func (s *Service) rejectLocked(reason string) Decision {
	s.rejected++
	s.flushLocked()
	return Decision{Reason: reason}
}

// Get returns a copy of one tenant record.
func (s *Service) Get(id int32) (Tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[id]
	if t == nil {
		return Tenant{}, false
	}
	return *t, true
}

// tenantList returns copies of every record, sorted by id.
func (s *Service) tenantList() []Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Tenant, 0, len(s.tenants))
	for _, id := range s.sortedIDsLocked() {
		out = append(out, *s.tenants[id])
	}
	return out
}

// StatusCounts returns how many tenants sit in each state.
func (s *Service) StatusCounts() map[TenantStatus]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[TenantStatus]int)
	for _, t := range s.tenants {
		m[t.Status]++
	}
	return m
}

// Stats returns the lifetime counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Admitted:       s.admitted,
		Rejected:       s.rejected,
		Released:       s.released,
		ReconcileLoops: s.reconcileLoops,
		Displaced:      s.displaced,
		Replacements:   s.replacements,
		Retries:        s.retries,
		Evictions:      s.evictions,
		Desired:        len(s.tenants),
		Placed:         s.placedLocked(),
	}
}

func (s *Service) placedLocked() int {
	placed := 0
	for _, t := range s.tenants {
		if t.Status == StatusPlaced {
			placed++
		}
	}
	return placed
}

// Verify recomputes the ledger from the admitted set.
func (s *Service) Verify() error { return s.alloc.Ledger().Verify() }

func (s *Service) sortedIDsLocked() []int32 {
	ids := make([]int32, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// persistPutLocked appends t's record. Admit fails the request on an
// error; the reconciler's callers drop it — realized state is already
// changed, and the record is rewritten at the tenant's next transition.
func (s *Service) persistPutLocked(t *Tenant) error {
	if s.store == nil {
		return nil
	}
	return s.store.Put(*t)
}

func (s *Service) persistDeleteLocked(id int32) {
	if s.store != nil {
		_ = s.store.Delete(id)
	}
}

// flushLocked mirrors the counters into the telemetry registry.
func (s *Service) flushLocked() {
	reg := s.cfg.Telemetry
	if reg == nil {
		return
	}
	placement.MirrorCounter(reg, "placement.ctl.admitted", s.admitted)
	placement.MirrorCounter(reg, "placement.ctl.rejected", s.rejected)
	placement.MirrorCounter(reg, "placement.ctl.released", s.released)
	placement.MirrorCounter(reg, "placement.ctl.reconcile_loops", s.reconcileLoops)
	placement.MirrorCounter(reg, "placement.ctl.displaced", s.displaced)
	placement.MirrorCounter(reg, "placement.ctl.replacements", s.replacements)
	placement.MirrorCounter(reg, "placement.ctl.retries", s.retries)
	placement.MirrorCounter(reg, "placement.ctl.evictions", s.evictions)
	reg.Gauge("placement.ctl.desired_tenants").Set(float64(len(s.tenants)))
	reg.Gauge("placement.ctl.placed_tenants").Set(float64(s.placedLocked()))
	reg.Gauge("placement.ctl.max_subscription").SetMax(s.alloc.Ledger().MaxSubscription())
}
