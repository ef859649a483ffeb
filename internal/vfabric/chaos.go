package vfabric

import (
	"ufab/internal/chaos"
	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// This file makes *Fabric a chaos.Target and hosts the tenant-churn
// operations fault scenarios exercise. Where the construction-time API
// panics on misuse (AddVF, AddFlow), these entry points validate and
// return false instead: an injected event must never crash a running
// simulation.

var _ chaos.Target = (*Fabric)(nil)

// ApplyScenario schedules a fault scenario against this fabric and
// returns the recording injector. Call it during setup (t = 0) so event
// times are absolute.
func (f *Fabric) ApplyScenario(s *chaos.Scenario) *chaos.Injector {
	return chaos.Inject(f, s)
}

// Engine implements chaos.Target.
func (f *Fabric) Engine() sim.Scheduler { return f.Eng }

// Network implements chaos.Target.
func (f *Fabric) Network() *dataplane.Network { return f.Net }

// RestartCoreAgent implements chaos.Target: it reboots the μFAB-C agent
// on the node, losing its Bloom/Φ/W registers. False if the node runs no
// core agent.
func (f *Fabric) RestartCoreAgent(node topo.NodeID) bool {
	c := f.Cores[node]
	if c == nil {
		return false
	}
	c.Restart()
	return true
}

// validHost reports whether id is a host with an edge agent.
func (f *Fabric) validHost(id topo.NodeID) bool {
	return int(id) >= 0 && int(id) < len(f.Graph.Nodes) &&
		f.Graph.Node(id).Kind == topo.Host && f.Edges[id] != nil
}

// AddTenant implements chaos.Target: it creates a VF and its VM-pairs
// mid-run. The whole spec is validated (through the same shared helpers
// AddVF/AddFlow panic with) before anything mutates, so a rejected
// arrival leaves the fabric untouched.
func (f *Fabric) AddTenant(spec chaos.TenantSpec) bool {
	if f.ValidateTenantSpec(spec) != nil {
		return false
	}
	vf := f.AddVF(spec.VF, spec.GuaranteeBps, spec.WeightClass)
	for _, pr := range spec.Pairs {
		fl := f.AddFlow(vf, pr.Src, pr.Dst, 0)
		backlog := pr.BacklogBytes
		if backlog <= 0 {
			backlog = 1 << 42
		}
		fl.Buffer.Add(backlog)
	}
	return true
}

// RemoveTenant implements chaos.Target.
func (f *Fabric) RemoveTenant(vf int32) bool { return f.RemoveVF(vf) }

// RemoveVF tears a tenant VF down: every VM-pair is finished (the finish
// probes deallocate its Φ/W contribution in the core) and the VF leaves the
// fabric's tenant table, freeing the id for a later arrival. Returns false
// for an unknown id. The edges that source it tear down in graph order —
// removal schedules packets, and map order would break run determinism.
func (f *Fabric) RemoveVF(id int32) bool {
	vf := f.VFs[id]
	if vf == nil {
		return false
	}
	f.ten.Remove(id)
	delete(f.VFs, id)
	for i, vid := range f.vfOrder {
		if vid == id {
			f.vfOrder = append(f.vfOrder[:i], f.vfOrder[i+1:]...)
			break
		}
	}
	if len(vf.pairs) > 0 {
		flows := f.Flows[:0]
		for _, fl := range f.Flows {
			if fl.VF != vf {
				flows = append(flows, fl)
			}
		}
		f.Flows = flows
		vf.pairs = nil
	}
	return true
}

// FaultStats aggregates the fault-related telemetry of a run.
type FaultStats struct {
	// Migrations / FreezesArmed / FreezeSuppressed sum the edge agents'
	// migration telemetry.
	Migrations       uint64
	FreezesArmed     uint64
	FreezeSuppressed uint64
	// CoreRestarts sums μFAB-C reboots.
	CoreRestarts uint64
	// FaultDrops / CorruptedProbes mirror the dataplane counters.
	FaultDrops      uint64
	CorruptedProbes uint64
}

// FaultStats gathers the fabric-wide fault telemetry, aggregating the
// agents' registry-backed counters.
func (f *Fabric) FaultStats() FaultStats {
	var s FaultStats
	for _, e := range f.Edges {
		s.Migrations += e.MigrationsCount()
		s.FreezesArmed += e.FreezesArmedCount()
		s.FreezeSuppressed += e.FreezeSuppressedCount()
	}
	for _, c := range f.Cores {
		s.CoreRestarts += c.RestartCount()
	}
	s.FaultDrops = f.Net.FaultDrops
	s.CorruptedProbes = f.Net.CorruptedProbes
	return s
}
