package vfabric

// Shared tenant-spec validation. The construction-time API (AddVF,
// AddFlow — which panic on misuse) and the mid-run churn path
// (AddTenant — which must reject and return false, an injected event
// never crashes a running simulation) check the same rules through these
// helpers, so a malformed spec is rejected identically however it
// arrives: non-positive guarantee, duplicate VF id, weight class outside
// the WFQ range, unknown or edge-less hosts, self-loop pairs, and
// unreachable endpoints.

import (
	"fmt"

	"ufab/internal/chaos"
	"ufab/internal/topo"
	"ufab/internal/ufabe"
)

// validateVF checks a VF registration against the fabric's current state.
func (f *Fabric) validateVF(id int32, guaranteeBps float64, weightClass int) error {
	if f.VFs[id] != nil {
		return fmt.Errorf("vfabric: VF %d already exists", id)
	}
	if guaranteeBps <= 0 {
		return fmt.Errorf("vfabric: VF %d non-positive guarantee %v", id, guaranteeBps)
	}
	if weightClass < 0 || weightClass >= ufabe.NumWeightClasses {
		return fmt.Errorf("vfabric: VF %d weight class %d outside 0..%d",
			id, weightClass, ufabe.NumWeightClasses-1)
	}
	return nil
}

// validatePair checks one VM-pair's endpoints: both must be hosts with
// edge agents, distinct, and connected. Connectivity is a hop-count read, so
// the only path enumeration a pair costs is the one that samples its routes.
func (f *Fabric) validatePair(src, dst topo.NodeID) error {
	if !f.validHost(src) {
		return fmt.Errorf("vfabric: src %d is not a host with an edge agent", src)
	}
	if !f.validHost(dst) {
		return fmt.Errorf("vfabric: dst %d is not a host with an edge agent", dst)
	}
	if src == dst {
		return fmt.Errorf("vfabric: pair %d→%d is a self-loop", src, dst)
	}
	if f.Graph.Hops(src, dst) < 0 {
		return fmt.Errorf("vfabric: no path %d→%d", src, dst)
	}
	return nil
}

// ValidateTenantSpec checks a whole tenant spec without mutating the
// fabric: the VF registration plus every pair. The admission controller
// and the chaos churn path both call it before materializing anything.
func (f *Fabric) ValidateTenantSpec(spec chaos.TenantSpec) error {
	if err := f.validateVF(spec.VF, spec.GuaranteeBps, spec.WeightClass); err != nil {
		return err
	}
	for _, pr := range spec.Pairs {
		if err := f.validatePair(pr.Src, pr.Dst); err != nil {
			return err
		}
	}
	return nil
}
