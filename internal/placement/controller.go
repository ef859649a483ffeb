package placement

import (
	"errors"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

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
	// decisionLatency is the service time per admission decision;
	// requests queue FIFO behind it (default 10 µs). Time-to-admit =
	// queue wait + service.
	decisionLatency sim.Duration
	// Policy picks VM hosts (default firstFit).
	Policy Policy
	// Telemetry, if non-nil, publishes placement.ctl.* counters and
	// records EvPlacement flight-recorder events.
	Telemetry *telemetry.Registry
}

// Controller is the in-simulation admission front-end: requests flow
// through a FIFO decision queue, one per decisionLatency, and each decision
// is one Allocator transaction (policy → ledger headroom → materialize →
// slots). The Controller adds only the queue, the lifetime counters and the
// flight-recorder events. It must run on the simulation engine's goroutine.
type Controller struct {
	eng   sim.Scheduler
	cfg   Config
	alloc *Allocator

	queue []queued
	busy  bool

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
	if cfg.decisionLatency == 0 {
		cfg.decisionLatency = 10 * sim.Microsecond
	}
	c := &Controller{eng: eng, cfg: cfg, alloc: NewAllocator(g, mat, cfg)}
	if cfg.Telemetry != nil {
		c.rec = cfg.Telemetry.Recorder()
		c.hAdmit = cfg.Telemetry.Histogram("placement.ctl.admit_latency_us")
		c.alloc.stage = c.stage
	}
	return c
}

// Ledger exposes the controller's subscription account (read side for
// the auditor and experiments).
func (c *Controller) Ledger() *Ledger { return c.alloc.ledger }

// Fleet exposes the slot-occupancy view.
func (c *Controller) Fleet() *Fleet { return c.alloc.fleet }

// Submit enqueues a request; done (optional) fires with the decision
// when the controller reaches it. Decisions are served FIFO, one per
// decisionLatency, so time-to-admit reflects control-plane load.
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
	c.eng.At(c.eng.Now()+sim.Time(c.cfg.decisionLatency), func() {
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

// decide runs one admission decision through the transaction.
func (c *Controller) decide(req Request) Decision {
	hosts, pairs, err := c.alloc.Realize(req)
	if err != nil {
		c.count(&c.rejected, req, "reject")
		if errors.Is(err, errDuplicate) {
			err = errInvalid // Decision.Reason has never had a "duplicate"
		}
		return Decision{Reason: Reason(err)}
	}
	c.count(&c.admitted, req, "admit")
	return Decision{Accepted: true, Hosts: hosts, Pairs: pairs}
}

// Release tears an admitted tenant down (Allocator.Withdraw). Returns
// false for an unknown tenant.
func (c *Controller) Release(id int32) bool {
	if !c.alloc.Withdraw(id) {
		return false
	}
	c.count(&c.released, Request{ID: id}, "release")
	return true
}

// ---- chaos.Admission -------------------------------------------------------

// AdmitSpec implements chaos.Admission: a scenario's explicit
// TenantArrive spec (hosts already chosen) is checked against ledger
// headroom and committed on accept. It is ledger-only by design, not a
// second copy of the transaction: the injector materializes the spec
// itself, and scenario specs place VMs explicitly, outside the policy's
// slot accounting — so there is no fabric step to roll back and no slot to
// charge. A spec the ledger cannot account (non-positive guarantee,
// duplicate id, endpoint outside the graph) is rejected.
func (c *Controller) AdmitSpec(spec chaos.TenantSpec) bool {
	req := Request{ID: spec.VF, GuaranteeBps: spec.GuaranteeBps}
	ok := spec.GuaranteeBps > 0 && !c.alloc.ledger.has(spec.VF)
	if ok {
		pairs := make([]Pair, 0, len(spec.Pairs))
		for _, p := range spec.Pairs {
			pairs = append(pairs, Pair{Src: p.Src, Dst: p.Dst})
		}
		req.VMs = len(spec.Pairs) + 1
		ok = c.alloc.ledger.Admit(spec.VF, spec.GuaranteeBps, pairs) == nil
	}
	if !ok {
		c.count(&c.rejected, req, "reject")
		return false
	}
	c.count(&c.admitted, req, "admit")
	return true
}

// ReleaseTenant implements chaos.Admission: the injector already tore the
// tenant down (or never materialized it); only the commitment returns.
func (c *Controller) ReleaseTenant(vf int32) bool {
	if !c.alloc.release(vf) {
		return false
	}
	c.count(&c.released, Request{ID: vf}, "release")
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
		Active:    c.alloc.ledger.Tenants(),
		Pending:   len(c.queue),
	}
}

// count bumps one lifetime counter, records the outcome's flight-recorder
// event and mirrors the counters into the registry.
func (c *Controller) count(n *int64, req Request, note string) {
	*n++
	c.event(req, note)
	c.flush()
}

// event records the outcome of a request (EvPlacement) under its
// admission trace, after the pipeline stages.
func (c *Controller) event(req Request, note string) {
	c.record(telemetry.EvPlacement, req, note, 5)
}

// stage traces one step of the admission pipeline
// (queue→place→commit→materialize) under the request's admission trace.
func (c *Controller) stage(id int32, note string, span uint64) {
	c.record(telemetry.EvStage, Request{ID: id}, note, span)
}

func (c *Controller) record(kind telemetry.EventKind, req Request, note string, span uint64) {
	if c.rec == nil {
		return
	}
	c.rec.Record(telemetry.Event{
		T:      int64(c.eng.Now()),
		Kind:   kind,
		Entity: "placement.ctl",
		A:      int64(req.ID),
		B:      int64(req.VMs),
		V:      req.GuaranteeBps,
		Note:   note,
		Trace:  telemetry.SpanID(telemetry.TraceAdmission, int64(req.ID)),
		Span:   span,
	})
}

// flush mirrors the counters into the registry.
func (c *Controller) flush() {
	reg := c.cfg.Telemetry
	if reg == nil {
		return
	}
	MirrorCounter(reg, "placement.ctl.submitted", c.submitted)
	MirrorCounter(reg, "placement.ctl.admitted", c.admitted)
	MirrorCounter(reg, "placement.ctl.rejected", c.rejected)
	MirrorCounter(reg, "placement.ctl.released", c.released)
	reg.Gauge("placement.ctl.active_tenants").Set(float64(c.alloc.ledger.Tenants()))
	reg.Gauge("placement.ctl.max_subscription").SetMax(c.alloc.ledger.MaxSubscription())
}

// MirrorCounter raises the registry counter name to v. Both front-ends
// keep their lifetime counters as plain fields and publish them this way
// after every decision.
func MirrorCounter(reg *telemetry.Registry, name string, v int64) {
	cnt := reg.Counter(name)
	if d := v - cnt.Value(); d > 0 {
		cnt.Add(d)
	}
}

var _ chaos.Admission = (*Controller)(nil)
