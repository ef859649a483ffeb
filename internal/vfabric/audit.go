package vfabric

import (
	"sort"

	"ufab/internal/audit"
	"ufab/internal/probe"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/ufabe"
)

// auditState holds the fabric's auditor and the reusable sample buffers
// the per-tick collector fills. Everything is preallocated or reused so an
// audited run's marginal cost is bounded and — more importantly — so the
// collector never perturbs the simulation it observes.
type auditState struct {
	a      *audit.Auditor
	sample audit.Sample
	// Per-link accumulators, indexed by LinkID.
	cand   []float64
	act    []float64
	stamp  []int64 // per-pair dedup stamp for cand
	seq    int64
	faulty []bool
	// Per-flow active-route buffers (audit.PairSample.Links).
	routes [][]int32
	// Barrier-fed event delivery for partitioned fabrics: instead of a
	// live subscription (whose delivery order would depend on which shard
	// recorded first), each tick merges what the base (coordinator) recorder
	// and every shard recorder recorded since the last one into the auditor,
	// and returns how many events the rings evicted unread. Nil when the
	// auditor subscribes.
	feed func() (missed uint64)
}

// initAudit wires the auditor into a freshly assembled fabric. Audit
// requires telemetry: the excused-window and context machinery feed off
// the flight recorder, and an auditor without it would silently report
// chaos damage as bugs.
func (f *Fabric) initAudit(cfg *Config) {
	if cfg.Audit == nil {
		return
	}
	if cfg.Telemetry == nil {
		panic("vfabric: Config.Audit requires Config.Telemetry")
	}
	ac := *cfg.Audit
	if cfg.Edge.DisableTwoStage {
		// μFAB′ removes the admission ramp, and with it the burst bound the
		// queue check derives from — the invariant doesn't exist there.
		ac.DisableQueueBound = true
	}
	if ac.AcctHoldPS == 0 {
		// Register residue after a pair vanishes is legitimate until the
		// silent-quit cleanup expires it: only drift persisting past the
		// core's declared staleness bound is a bug.
		ac.AcctHoldPS = int64(cfg.Core.StalenessBound())
	}
	nLinks := len(f.Graph.Links)
	f.aud = &auditState{
		a:      audit.New(ac),
		cand:   make([]float64, nLinks),
		act:    make([]float64, nLinks),
		stamp:  make([]int64, nLinks),
		faulty: make([]bool, nLinks),
	}
	f.aud.sample.Links = make([]audit.LinkSample, nLinks)
	if shardRecs := cfg.Telemetry.ShardRecorders(); len(shardRecs) > 0 {
		recs := append([]*telemetry.Recorder{cfg.Telemetry.Recorder()}, shardRecs...)
		f.aud.feed = telemetry.Merge(recs, audit.Observes, f.aud.a.ObserveEvent)
	} else {
		cfg.Telemetry.Recorder().Subscribe(f.aud.a.ObserveEvent)
	}
}

// feedEvents replays every recorder's new events since the last tick into
// the auditor, merged canonically. Running at the sampling barrier makes the
// fed stream a pure function of the simulation state — identical whether the
// shards executed inline or on worker goroutines — because the set of events
// recorded before a barrier does not depend on the worker count and the
// merge order is content-defined.
func (au *auditState) feedEvents() {
	if au.feed == nil {
		return
	}
	// What the rings evicted since the last tick the auditor never sees —
	// faults that excuse findings among it, for all it knows — and must not
	// pass for a complete audit.
	au.a.MissedEvents(au.feed())
}

// AuditLog returns the findings sink of the fabric's auditor (nil when
// auditing is off).
func (f *Fabric) AuditLog() *audit.Log {
	if f.aud == nil {
		return nil
	}
	return f.aud.a.Log()
}

// auditTick snapshots the fabric into an audit.Sample and feeds the
// auditor. It runs from SampleRates, after telemetry flush, so the
// auditor sees exactly the sampling cadence the run reports at.
func (f *Fabric) auditTick() {
	au := f.aud
	if au == nil {
		return
	}
	au.feedEvents()
	s := &au.sample
	s.T = int64(f.Eng.Now())

	// Live register references: sum each non-idle pair's token over its
	// candidate-path links (what μFAB-C should have admitted at most) and
	// its active-path links (what must still be registered).
	for i := range au.cand {
		au.cand[i] = 0
		au.act[i] = 0
	}
	for _, fl := range f.Flows {
		p := fl.Pair
		if p.Idle() {
			continue
		}
		phi := p.Phi()
		au.seq++
		for i := 0; i < p.PathCount(); i++ {
			for _, lid := range p.Route(i) {
				if au.stamp[lid] != au.seq {
					au.stamp[lid] = au.seq
					au.cand[lid] += phi
				}
			}
		}
		// The lower reference counts only pairs actually exercising the
		// fabric. A non-idle but silent pair — created before its first
		// message, or drained between messages — sends no probes, so
		// past the staleness bound the core may legitimately have
		// cleaned its registration.
		if fl.Demand == nil || (fl.Demand.Pending() == 0 && p.Inflight() == 0) {
			continue
		}
		for _, lid := range p.ActivePath() {
			au.act[lid] += phi
		}
	}

	for i := range f.Graph.Links {
		lid := topo.LinkID(i)
		link := f.Graph.Link(lid)
		port := f.Net.Port(lid)
		core := f.Cores[link.Src]
		au.faulty[i] = f.Net.LinkFailed(lid) || f.Net.LinkDegraded(lid) ||
			f.Net.Failed(link.Src) || f.Net.Failed(link.Dst)
		ls := &s.Links[i]
		*ls = audit.LinkSample{
			Entity:        f.Net.LinkEntity(lid),
			TargetBps:     probe.TargetUtilization * f.Net.EffectiveCapacity(lid),
			TxBytes:       port.TxBytes,
			QueueBytes:    int64(port.QueueBytes()),
			HasCore:       core != nil,
			LivePhiCand:   au.cand[i],
			LivePhiActive: au.act[i],
			Faulty:        au.faulty[i],
		}
		if core != nil {
			phi, w := core.Subscription(lid)
			ls.PhiTokens = phi
			ls.WindowBytes = w
		}
		if f.Cfg.Ledger != nil {
			ls.CommittedTokens = f.Cfg.Ledger.CommittedBps(lid) / ufabe.BU
			ls.HasLedger = true
		}
	}

	for len(au.routes) < len(f.Flows) {
		au.routes = append(au.routes, nil)
	}
	s.Pairs = s.Pairs[:0]
	for i, fl := range f.Flows {
		p := fl.Pair
		route := au.routes[i][:0]
		pairFaulty := false
		for _, lid := range p.ActivePath() {
			route = append(route, int32(lid))
			if au.faulty[lid] {
				pairFaulty = true
			}
		}
		au.routes[i] = route
		s.Pairs = append(s.Pairs, audit.PairSample{
			VM:         int64(p.ID),
			VF:         p.VF,
			PhiBps:     p.Guarantee(),
			Backlogged: !p.Idle() && fl.Demand != nil && fl.Demand.Pending() > 0,
			Delivered:  p.Delivered,
			Migrations: p.Migrations,
			Links:      route,
			Faulty:     pairFaulty,
		})
	}

	s.VFs = s.VFs[:0]
	for _, id := range f.vfOrder {
		vf := f.VFs[id]
		s.VFs = append(s.VFs, audit.VFSample{ID: vf.ID, GuaranteeBps: vf.GuaranteeBps})
	}
	sort.Slice(s.VFs, func(i, j int) bool { return s.VFs[i].ID < s.VFs[j].ID })

	au.a.Tick(s)
}
