package vfabric

import (
	"strings"
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

func newValidateFabric(t *testing.T) (*Fabric, *topo.Testbed) {
	t.Helper()
	eng := sim.New()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	return New(eng, tb.Graph, Config{Seed: 1}), tb
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

// The construction-time API and the chaos churn path reject the same
// malformed specs: one panics, the other returns false, both through the
// shared validators.
func TestValidationUnified(t *testing.T) {
	f, tb := newValidateFabric(t)
	s1, s2 := tb.Servers[0], tb.Servers[1]

	// Non-positive guarantee.
	mustPanic(t, "non-positive guarantee", func() { f.AddVF(1, 0, 0) })
	if f.AddTenant(chaos.TenantSpec{VF: 1, GuaranteeBps: -5}) {
		t.Fatal("AddTenant accepted non-positive guarantee")
	}

	// Bad weight class.
	mustPanic(t, "weight class", func() { f.AddVF(1, 1e9, 8) })
	mustPanic(t, "weight class", func() { f.AddVF(1, 1e9, -1) })
	if f.AddTenant(chaos.TenantSpec{VF: 1, GuaranteeBps: 1e9, WeightClass: 99}) {
		t.Fatal("AddTenant accepted weight class 99")
	}

	// Duplicate id.
	vf := f.AddVF(1, 1e9, 0)
	mustPanic(t, "already exists", func() { f.AddVF(1, 1e9, 0) })
	if f.AddTenant(chaos.TenantSpec{VF: 1, GuaranteeBps: 1e9}) {
		t.Fatal("AddTenant accepted duplicate VF id")
	}

	// Unknown hosts and self-loops.
	mustPanic(t, "not a host", func() { f.AddFlow(vf, topo.NodeID(999), s2, 0) })
	sw := tb.ToRs[0]
	mustPanic(t, "not a host", func() { f.AddFlow(vf, s1, sw, 0) })
	mustPanic(t, "self-loop", func() { f.AddFlow(vf, s1, s1, 0) })
	bad := chaos.TenantSpec{VF: 2, GuaranteeBps: 1e9,
		Pairs: []chaos.PairSpec{{Src: s1, Dst: s1}}}
	if f.AddTenant(bad) {
		t.Fatal("AddTenant accepted self-loop pair")
	}
	if f.VFs[2] != nil {
		t.Fatal("rejected arrival left VF registered")
	}

	// A valid spec passes both paths.
	f.AddFlow(vf, s1, s2, 0)
	ok := f.AddTenant(chaos.TenantSpec{VF: 2, GuaranteeBps: 1e9, WeightClass: 7,
		Pairs: []chaos.PairSpec{{Src: s1, Dst: s2}}})
	if !ok {
		t.Fatal("AddTenant rejected a valid spec")
	}
}

// A departed VF's flow is refused rather than given a token group outside
// any hose: the VF is no longer in the fabric's tenant table.
func TestAddFlowOfDepartedVFPanics(t *testing.T) {
	f, tb := newValidateFabric(t)
	vf := f.AddVF(1, 1e9, 0)
	f.AddFlow(vf, tb.Servers[0], tb.Servers[1], 0)
	if !f.RemoveVF(1) {
		t.Fatal("RemoveVF of a registered VF returned false")
	}
	mustPanic(t, "unregistered VF 1", func() { f.AddFlow(vf, tb.Servers[0], tb.Servers[1], 0) })
}

func TestValidateTenantSpecDoesNotMutate(t *testing.T) {
	f, tb := newValidateFabric(t)
	spec := chaos.TenantSpec{VF: 9, GuaranteeBps: 2e9, WeightClass: 3,
		Pairs: []chaos.PairSpec{{Src: tb.Servers[0], Dst: tb.Servers[4]}}}
	if err := f.ValidateTenantSpec(spec); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(f.VFs) != 0 || len(f.Flows) != 0 {
		t.Fatal("ValidateTenantSpec mutated the fabric")
	}
}
