package chaos

import (
	"fmt"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// Target is the surface the injector drives. *vfabric.Fabric implements
// it; tests use lightweight fakes. Methods must be safe to call with
// arbitrary (even invalid) arguments and report success — the injector
// records rejections in the log instead of panicking mid-simulation.
type Target interface {
	// Engine returns the simulation engine events are scheduled on.
	Engine() sim.Scheduler
	// Network returns the dataplane carrying node and link fault state.
	Network() *dataplane.Network
	// RestartCoreAgent reboots the μFAB-C agent on a switch, losing its
	// Bloom/Φ/W registers. Returns false if the node has no core agent.
	RestartCoreAgent(node topo.NodeID) bool
	// AddTenant creates a tenant VF with its VM-pairs. Returns false if
	// the spec is invalid (duplicate VF, unknown hosts, no path).
	AddTenant(spec TenantSpec) bool
	// RemoveTenant tears down a tenant VF and all its pairs. Returns
	// false if the VF does not exist.
	RemoveTenant(vf int32) bool
}

// Record is one line of the injection log.
type Record struct {
	At     sim.Time
	Kind   Kind
	Detail string
	Note   string
	// OK is false when the target rejected the event (bad node/link id,
	// unknown VF, ...); the simulation continues either way.
	OK bool
}

func (r Record) String() string {
	status := "ok"
	if !r.OK {
		status = "REJECTED"
	}
	s := fmt.Sprintf("t=%.3fus %-13s %s [%s]", r.At.Micros(), r.Kind, r.Detail, status)
	if r.Note != "" {
		s += " # " + r.Note
	}
	return s
}

// Admission is the optional control-plane gate on tenant churn events
// (implemented by placement.Controller). When an Injector carries one,
// TenantArrive events must pass the admission check before the target
// materializes them — the checked-admit mode; without one the injector
// force-admits, preserving pre-control-plane behavior exactly.
type Admission interface {
	// AdmitSpec checks ledger headroom for the spec's pairs and commits
	// the subscription on accept. Returns false on reject.
	AdmitSpec(spec TenantSpec) bool
	// ReleaseTenant releases a prior commitment (tenant departed, or its
	// materialization failed after admission).
	ReleaseTenant(vf int32) bool
}

// Injector owns a scheduled scenario and its injection log.
type Injector struct {
	target   Target
	eng      sim.Scheduler
	scenario *Scenario
	adm      Admission
	// Log records every applied (or rejected) event in firing order.
	Log []Record
}

// WithAdmission routes this injector's tenant churn through the admission
// gate: arrivals commit ledger headroom before materializing (and reject
// when there is none), departures release it. Call before the first event
// fires. Returns the injector for chaining.
func (inj *Injector) WithAdmission(adm Admission) *Injector {
	inj.adm = adm
	return inj
}

// Inject schedules every event of s on t's engine, offset from the
// current simulation time, and returns the recording Injector. Events
// fire in scenario order when timestamps tie, so injection is
// deterministic.
func Inject(t Target, s *Scenario) *Injector {
	inj := &Injector{target: t, eng: t.Engine(), scenario: s}
	base := inj.eng.Now()
	for i := range s.Events {
		ev := s.Events[i]
		inj.eng.At(base+sim.Time(ev.At), func() { inj.apply(ev) })
	}
	return inj
}

// apply executes one event against the target and records the outcome.
func (inj *Injector) apply(ev Event) {
	net := inj.target.Network()
	ok := false
	note := ev.Note
	switch ev.Kind {
	case NodeCrash:
		ok = net.FailNode(ev.Node)
	case NodeRecover:
		ok = net.RecoverNode(ev.Node)
	case LinkDown:
		ok = inj.eachLink(net, ev, net.FailLink)
	case linkUp:
		ok = inj.eachLink(net, ev, net.RecoverLink)
	case LinkDegrade:
		if ev.Degradation != nil {
			d := *ev.Degradation
			ok = inj.eachLink(net, ev, func(l topo.LinkID) bool { return net.DegradeLink(l, d) })
		}
	case linkRestore:
		ok = inj.eachLink(net, ev, net.RestoreLink)
	case AgentRestart:
		ok = inj.target.RestartCoreAgent(ev.Node)
	case TenantArrive:
		if ev.Tenant != nil {
			switch {
			case inj.adm == nil:
				ok = inj.target.AddTenant(*ev.Tenant)
			case !inj.adm.AdmitSpec(*ev.Tenant):
				note = joinNote(ev.Note, "admission-reject")
			default:
				ok = inj.target.AddTenant(*ev.Tenant)
				if !ok {
					// Admitted but unmaterializable (e.g. duplicate VF id):
					// hand the committed headroom back.
					inj.adm.ReleaseTenant(ev.Tenant.VF)
				}
			}
		}
	case TenantDepart:
		ok = inj.target.RemoveTenant(ev.VF)
		if ok && inj.adm != nil {
			inj.adm.ReleaseTenant(ev.VF)
		}
	}
	inj.Log = append(inj.Log, Record{
		At: inj.eng.Now(), Kind: ev.Kind, Detail: ev.detail(), Note: note, OK: ok,
	})
	if rec := net.FlightRecorder(); rec != nil {
		applied := int64(0)
		if ok {
			applied = 1
		}
		rec.Record(telemetry.Event{T: int64(inj.eng.Now()), Kind: telemetry.EvFault,
			Entity: "chaos.injector", A: applied, Note: ev.Kind.String()})
	}
}

// joinNote appends a marker to an event's user note.
func joinNote(base, marker string) string {
	if base == "" {
		return marker
	}
	return base + "; " + marker
}

// eachLink applies f to the event's link, and to its reverse direction
// when the event is duplex. Out-of-range links are rejected, not panics.
func (inj *Injector) eachLink(net *dataplane.Network, ev Event, f func(topo.LinkID) bool) bool {
	if int(ev.Link) < 0 || int(ev.Link) >= len(net.G.Links) {
		return false
	}
	ok := f(ev.Link)
	if ev.Duplex {
		if rev := net.G.Link(ev.Link).Reverse; rev >= 0 {
			ok = f(rev) && ok
		} else {
			ok = false
		}
	}
	return ok
}

// Applied counts successfully applied events of the given kind.
func (inj *Injector) Applied(k Kind) int {
	n := 0
	for _, r := range inj.Log {
		if r.Kind == k && r.OK {
			n++
		}
	}
	return n
}

// Rejected counts events the target refused.
func (inj *Injector) Rejected() int {
	n := 0
	for _, r := range inj.Log {
		if !r.OK {
			n++
		}
	}
	return n
}
