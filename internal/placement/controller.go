package placement

import (
	"errors"
	"fmt"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// Request asks the controller to admit one tenant: a hose guarantee per
// VM, a VM count (materialized as a chain of VM-pairs), and a WFQ weight
// class.
type Request struct {
	// ID becomes the tenant's VF id; it must be unique among admitted
	// tenants.
	ID int32
	// GuaranteeBps is the per-VM hose guarantee.
	GuaranteeBps float64
	// VMs is how many VMs to place (each on a distinct host).
	VMs int
	// WeightClass is the WFQ class (0..7).
	WeightClass int
	// BacklogBytes per materialized pair; <= 0 means effectively infinite.
	BacklogBytes int64
}

// Decision is the controller's verdict on one request.
type Decision struct {
	Accepted bool
	// Reason explains a rejection: "placement" (no feasible hosts),
	// "headroom" (a link would exceed the oversubscribed budget),
	// "materialize" (the fabric refused the spec), "invalid".
	Reason string
	// Hosts are the placed VM locations (accepted only).
	Hosts []topo.NodeID
	// Pairs is the committed chain (accepted only).
	Pairs []Pair
	// SubmittedAt/DecidedAt bound the decision latency (queue wait +
	// service time).
	SubmittedAt, DecidedAt sim.Time
}

// Materializer turns an admitted spec into data-plane state.
// *vfabric.Fabric implements it; ledger-only studies leave it nil.
type Materializer interface {
	AddTenant(spec chaos.TenantSpec) bool
	RemoveTenant(vf int32) bool
}

// Config parameterizes a Controller.
type Config struct {
	// Oversubscription scales every link's admission budget: a request is
	// admitted only while committed + delta ≤ factor·capacity on every
	// affected link. 1.0 (the default) admits at most line rate — the
	// paper's predictability precondition; >1 deliberately oversubscribes.
	Oversubscription float64
	// SlotsPerHost caps VMs per host (default 8).
	SlotsPerHost int
	// MaxPaths bounds the ledger's per-pair ECMP enumeration (0 = all).
	MaxPaths int
	// DecisionLatency is the service time per admission decision;
	// requests queue FIFO behind it (default 10 µs). Time-to-admit =
	// queue wait + service.
	DecisionLatency sim.Duration
	// Policy picks VM hosts (default FirstFit).
	Policy Policy
	// Telemetry, if non-nil, publishes placement.ctl.* counters and
	// records EvPlacement flight-recorder events.
	Telemetry *telemetry.Registry
}

// Controller is the admission control plane: requests flow through a
// FIFO decision queue, the policy proposes hosts, the ledger headroom
// check accepts or rejects, and accepted tenants materialize through the
// Materializer. It must run on the simulation engine's goroutine.
type Controller struct {
	eng    sim.Scheduler
	cfg    Config
	ledger *Ledger
	fleet  *Fleet
	mat    Materializer

	queue []queued
	busy  bool

	// hostsOf remembers policy-placed hosts per tenant so Release can
	// return the slots.
	hostsOf map[int32][]topo.NodeID

	// Counters (also mirrored to telemetry when attached).
	submitted, admitted, rejected, released int64

	rec    *telemetry.Recorder
	hAdmit *telemetry.Histogram
}

type queued struct {
	req  Request
	at   sim.Time
	done func(Decision)
}

// NewController builds the control plane over the graph. mat may be nil
// (ledger-only operation — admitted tenants exist on paper only).
func NewController(eng sim.Scheduler, g *topo.Graph, mat Materializer, cfg Config) *Controller {
	if cfg.Oversubscription == 0 {
		cfg.Oversubscription = 1.0
	}
	if cfg.SlotsPerHost == 0 {
		cfg.SlotsPerHost = 8
	}
	if cfg.DecisionLatency == 0 {
		cfg.DecisionLatency = 10 * sim.Microsecond
	}
	if cfg.Policy == nil {
		cfg.Policy = FirstFit{}
	}
	c := &Controller{
		eng:     eng,
		cfg:     cfg,
		ledger:  NewLedger(g, cfg.MaxPaths),
		fleet:   NewFleet(g, cfg.SlotsPerHost),
		mat:     mat,
		hostsOf: make(map[int32][]topo.NodeID),
	}
	c.ledger.Oversubscription = cfg.Oversubscription
	if cfg.Telemetry != nil {
		c.rec = cfg.Telemetry.Recorder()
		c.hAdmit = cfg.Telemetry.Histogram("placement.ctl.admit_latency_us")
	}
	return c
}

// Ledger exposes the controller's subscription account (read side for
// the auditor and experiments).
func (c *Controller) Ledger() *Ledger { return c.ledger }

// Fleet exposes the slot-occupancy view.
func (c *Controller) Fleet() *Fleet { return c.fleet }

// Policy returns the active placement policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// Submit enqueues a request; done (optional) fires with the decision
// when the controller reaches it. Decisions are served FIFO, one per
// DecisionLatency, so time-to-admit reflects control-plane load.
func (c *Controller) Submit(req Request, done func(Decision)) {
	c.submitted++
	c.queue = append(c.queue, queued{req: req, at: c.eng.Now(), done: done})
	c.stage(req.ID, "queue", 1)
	c.serve()
}

// serve starts the decision timer when the controller is idle.
func (c *Controller) serve() {
	if c.busy || len(c.queue) == 0 {
		return
	}
	c.busy = true
	c.eng.At(c.eng.Now()+sim.Time(c.cfg.DecisionLatency), func() {
		q := c.queue[0]
		c.queue = c.queue[1:]
		d := c.decide(q.req)
		d.SubmittedAt = q.at
		d.DecidedAt = c.eng.Now()
		c.hAdmit.Observe((d.DecidedAt - d.SubmittedAt).Micros())
		c.busy = false
		if q.done != nil {
			q.done(d)
		}
		c.serve()
	})
}

// decide runs one admission decision: place → headroom → commit →
// materialize.
func (c *Controller) decide(req Request) Decision {
	if req.GuaranteeBps <= 0 || req.VMs < 1 || c.ledger.Has(req.ID) {
		return c.reject(req, "invalid")
	}
	hosts := c.cfg.Policy.Place(req, c.fleet, c.ledger)
	if len(hosts) != req.VMs {
		return c.reject(req, "placement")
	}
	c.stage(req.ID, "place", 2)
	pairs := ChainPairs(hosts)
	if err := c.ledger.Admit(req.ID, req.GuaranteeBps, pairs); err != nil {
		switch {
		case errors.Is(err, ErrHeadroom):
			return c.reject(req, "headroom")
		case errors.Is(err, ErrDuplicate):
			return c.reject(req, "invalid")
		default: // unroutable pair
			return c.reject(req, "placement")
		}
	}
	c.stage(req.ID, "commit", 3)
	if c.mat != nil {
		if !c.mat.AddTenant(c.spec(req, pairs)) {
			c.ledger.Release(req.ID)
			return c.reject(req, "materialize")
		}
		c.stage(req.ID, "materialize", 4)
	}
	c.fleet.Place(hosts)
	c.hostsOf[req.ID] = hosts
	c.admitted++
	c.event(req, "admit")
	c.flush()
	return Decision{Accepted: true, Hosts: hosts, Pairs: pairs}
}

// spec converts an accepted request + chain into the churn surface's
// tenant spec.
func (c *Controller) spec(req Request, pairs []Pair) chaos.TenantSpec {
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

func (c *Controller) reject(req Request, reason string) Decision {
	c.rejected++
	c.event(req, "reject")
	c.flush()
	return Decision{Reason: reason}
}

// Release tears an admitted tenant down: data-plane state first (finish
// probes drain its registers), then the ledger commitment and host
// slots. Returns false for an unknown tenant.
func (c *Controller) Release(id int32) bool {
	if !c.ledger.Has(id) {
		return false
	}
	if c.mat != nil {
		c.mat.RemoveTenant(id)
	}
	c.ledger.Release(id)
	if hosts, ok := c.hostsOf[id]; ok {
		c.fleet.Release(hosts)
		delete(c.hostsOf, id)
	}
	c.released++
	c.event(Request{ID: id}, "release")
	c.flush()
	return true
}

// ---- chaos.Admission -------------------------------------------------------

// AdmitSpec implements chaos.Admission: a scenario's explicit
// TenantArrive spec (hosts already chosen) is checked against ledger
// headroom and committed on accept. The injector materializes the spec
// itself, so no Materializer call happens here. Slot occupancy is not
// charged — scenario specs place VMs explicitly, outside the policy's
// slot accounting.
func (c *Controller) AdmitSpec(spec chaos.TenantSpec) bool {
	req := Request{ID: spec.VF, GuaranteeBps: spec.GuaranteeBps}
	ok := spec.GuaranteeBps > 0 && !c.ledger.Has(spec.VF)
	if ok {
		pairs := make([]Pair, 0, len(spec.Pairs))
		for _, p := range spec.Pairs {
			pairs = append(pairs, Pair{Src: p.Src, Dst: p.Dst})
		}
		req.VMs = len(spec.Pairs) + 1
		ok = c.ledger.Admit(spec.VF, spec.GuaranteeBps, pairs) == nil
	}
	if !ok {
		c.rejected++
		c.event(req, "reject")
		c.flush()
		return false
	}
	c.admitted++
	c.event(req, "admit")
	c.flush()
	return true
}

// ReleaseTenant implements chaos.Admission: the injector already tore the
// tenant down (or never materialized it); only the commitment returns.
func (c *Controller) ReleaseTenant(vf int32) bool {
	if !c.ledger.Release(vf) {
		return false
	}
	if hosts, ok := c.hostsOf[vf]; ok {
		c.fleet.Release(hosts)
		delete(c.hostsOf, vf)
	}
	c.released++
	c.event(Request{ID: vf}, "release")
	c.flush()
	return true
}

// ---- accounting ------------------------------------------------------------

// Stats summarizes the controller's lifetime counters.
type Stats struct {
	Submitted, Admitted, Rejected, Released int64
	Active                                  int
	Pending                                 int
}

// Stats returns the controller's lifetime counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Submitted: c.submitted,
		Admitted:  c.admitted,
		Rejected:  c.rejected,
		Released:  c.released,
		Active:    c.ledger.Tenants(),
		Pending:   len(c.queue),
	}
}

// event records an EvPlacement flight-recorder entry, joined to the
// request's admission trace.
func (c *Controller) event(req Request, note string) {
	if c.rec == nil {
		return
	}
	c.rec.Record(telemetry.Event{
		T:      int64(c.eng.Now()),
		Kind:   telemetry.EvPlacement,
		Entity: "placement.ctl",
		A:      int64(req.ID),
		B:      int64(req.VMs),
		V:      req.GuaranteeBps,
		Note:   note,
		Trace:  telemetry.SpanID(telemetry.TraceAdmission, int64(req.ID)),
		Span:   5,
	})
}

// stage traces one step of the admission pipeline
// (queue→place→commit→materialize) under the request's admission trace.
func (c *Controller) stage(id int32, note string, span uint64) {
	if c.rec == nil {
		return
	}
	c.rec.Record(telemetry.Event{
		T:      int64(c.eng.Now()),
		Kind:   telemetry.EvStage,
		Entity: "placement.ctl",
		A:      int64(id),
		Note:   note,
		Trace:  telemetry.SpanID(telemetry.TraceAdmission, int64(id)),
		Span:   span,
	})
}

// flush mirrors the counters into the registry.
func (c *Controller) flush() {
	reg := c.cfg.Telemetry
	if reg == nil {
		return
	}
	set := func(name string, v int64) {
		cnt := reg.Counter(name)
		if d := v - cnt.Value(); d > 0 {
			cnt.Add(d)
		}
	}
	set("placement.ctl.submitted", c.submitted)
	set("placement.ctl.admitted", c.admitted)
	set("placement.ctl.rejected", c.rejected)
	set("placement.ctl.released", c.released)
	reg.Gauge("placement.ctl.active_tenants").Set(float64(c.ledger.Tenants()))
	reg.Gauge("placement.ctl.max_subscription").SetMax(c.ledger.MaxSubscription())
}

var _ chaos.Admission = (*Controller)(nil)

// String names the controller's configuration for experiment labels.
func (c *Controller) String() string {
	return fmt.Sprintf("placement(policy=%s, oversub=%.2f, slots=%d)",
		c.cfg.Policy.Name(), c.cfg.Oversubscription, c.cfg.SlotsPerHost)
}
