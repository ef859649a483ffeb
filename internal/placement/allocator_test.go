package placement

import (
	"errors"
	"reflect"
	"testing"

	"ufab/internal/topo"
)

// noPolicy fails the test when the transaction consults it: the cases that
// use it must be decided before any policy runs.
type noPolicy struct{ t *testing.T }

func (noPolicy) Name() string { return "none" }
func (p noPolicy) Place(Request, *Fleet, *Ledger) []topo.NodeID {
	p.t.Error("policy consulted for a request the transaction must reject first")
	return nil
}

// allocState is everything a failed transaction must leave untouched.
type allocState struct {
	tenants   int
	committed []float64
	used      []int
	slots     int
	added     int
	removed   int
}

func snapshot(a *Allocator, mat *fakeMat) allocState {
	s := allocState{
		tenants: a.ledger.Tenants(),
		used:    append([]int(nil), a.fleet.Used...),
		slots:   len(a.hostsOf),
		added:   len(mat.added),
		removed: len(mat.removed),
	}
	for lid := range a.ledger.Graph().Links {
		s.committed = append(s.committed, a.ledger.CommittedBps(topo.LinkID(lid)))
	}
	return s
}

// TestAllocatorTransaction is the one table of the admission transaction's
// failure and rollback cases; the Controller and Service tests cover only
// what each front-end adds on top.
func TestAllocatorTransaction(t *testing.T) {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	host := tb.Servers
	cases := []struct {
		name string
		cfg  Config
		// setup brings the allocator to the state the case needs.
		setup func(t *testing.T, a *Allocator, mat *fakeMat)
		// op is the operation under test.
		op func(a *Allocator) error
		// want is the sentinel the error must wrap; reason its rendering.
		want   error
		reason string
	}{
		{
			name:  "materializer refusal rolls back ledger and slots",
			setup: func(_ *testing.T, _ *Allocator, mat *fakeMat) { mat.failNext = true },
			op:    realize(Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}),
			want:  errMaterialize, reason: "materialize",
		},
		{
			name: "duplicate id",
			setup: func(t *testing.T, a *Allocator, _ *fakeMat) {
				mustRealize(t, a, Request{ID: 3, GuaranteeBps: 1e9, VMs: 2})
			},
			op:   realize(Request{ID: 3, GuaranteeBps: 1e9, VMs: 2}),
			want: errDuplicate, reason: "duplicate",
		},
		{
			name: "zero guarantee",
			op:   realize(Request{ID: 1, GuaranteeBps: 0, VMs: 2}),
			want: errInvalid, reason: "invalid",
		},
		{
			name: "negative guarantee, what-if",
			op:   propose(Request{ID: 1, GuaranteeBps: -1e9, VMs: 2}),
			want: errInvalid, reason: "invalid",
		},
		{
			name: "zero VMs",
			op:   realize(Request{ID: 1, GuaranteeBps: 1e9, VMs: 0}),
			want: errInvalid, reason: "invalid",
		},
		{
			// The testbed's hosts have 10G uplinks: two 4G chains on the
			// same first-fit hosts fit, the third does not.
			name: "headroom",
			cfg:  Config{SlotsPerHost: 16},
			setup: func(t *testing.T, a *Allocator, _ *fakeMat) {
				mustRealize(t, a, Request{ID: 1, GuaranteeBps: 4e9, VMs: 2})
				mustRealize(t, a, Request{ID: 2, GuaranteeBps: 4e9, VMs: 2})
			},
			op:   realize(Request{ID: 3, GuaranteeBps: 4e9, VMs: 2}),
			want: errHeadroom, reason: "headroom",
		},
		{
			name: "headroom, what-if",
			cfg:  Config{SlotsPerHost: 16},
			setup: func(t *testing.T, a *Allocator, _ *fakeMat) {
				mustRealize(t, a, Request{ID: 1, GuaranteeBps: 4e9, VMs: 2})
				mustRealize(t, a, Request{ID: 2, GuaranteeBps: 4e9, VMs: 2})
			},
			op:   propose(Request{ID: 3, GuaranteeBps: 4e9, VMs: 2}),
			want: errHeadroom, reason: "headroom",
		},
		{
			// 8 hosts × 1 slot: two 4-VM tenants fill the fleet.
			name: "slots exhausted",
			cfg:  Config{SlotsPerHost: 1},
			setup: func(t *testing.T, a *Allocator, _ *fakeMat) {
				mustRealize(t, a, Request{ID: 1, GuaranteeBps: 1e8, VMs: 4})
				mustRealize(t, a, Request{ID: 2, GuaranteeBps: 1e8, VMs: 4})
			},
			op:   realize(Request{ID: 3, GuaranteeBps: 1e8, VMs: 4}),
			want: errPlacement, reason: "placement",
		},
		{
			name: "more VMs than hosts never reaches the policy",
			cfg:  Config{Policy: noPolicy{t}},
			op:   realize(Request{ID: 1, GuaranteeBps: 1e9, VMs: 9}),
			want: errPlacement, reason: "placement",
		},
		{
			name: "huge VM count, what-if, never reaches the policy",
			cfg:  Config{Policy: noPolicy{t}},
			op:   propose(Request{ID: 1, GuaranteeBps: 1e9, VMs: 1 << 30}),
			want: errPlacement, reason: "placement",
		},
		{
			name: "restore: host outside the graph",
			op:   restore(Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, host[0], 9999),
			want: errPlacement, reason: "placement",
		},
		{
			name: "restore: negative host id",
			op:   restore(Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, -1, host[0]),
			want: errPlacement, reason: "placement",
		},
		{
			name: "restore: a switch is not a fleet host",
			op:   restore(Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, host[0], tb.ToRs[0]),
			want: errPlacement, reason: "placement",
		},
		{
			name: "restore: repeated host",
			op:   restore(Request{ID: 1, GuaranteeBps: 1e9, VMs: 3}, host[0], host[1], host[0]),
			want: errPlacement, reason: "placement",
		},
		{
			name: "restore: record shorter than its VM count",
			op:   restore(Request{ID: 1, GuaranteeBps: 1e9, VMs: 3}, host[0], host[1]),
			want: errPlacement, reason: "placement",
		},
		{
			name: "restore: materializer refusal rolls back",
			setup: func(_ *testing.T, _ *Allocator, mat *fakeMat) {
				mat.failNext = true
			},
			op:   restore(Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, host[0], host[1]),
			want: errMaterialize, reason: "materialize",
		},
		{
			name: "withdraw of an unknown id",
			setup: func(t *testing.T, a *Allocator, _ *fakeMat) {
				mustRealize(t, a, Request{ID: 1, GuaranteeBps: 1e9, VMs: 2})
			},
			op: func(a *Allocator) error {
				if a.Withdraw(42) {
					return errors.New("withdraw of an unknown tenant reported true")
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mat := &fakeMat{}
			a := NewAllocator(tb.Graph, mat, tc.cfg)
			if tc.setup != nil {
				tc.setup(t, a, mat)
			}
			before := snapshot(a, mat)
			err := tc.op(a)
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
			} else if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want one wrapping %v", err, tc.want)
			}
			if got := Reason(err); got != tc.reason {
				t.Fatalf("reason %q, want %q", got, tc.reason)
			}
			if after := snapshot(a, mat); !reflect.DeepEqual(after, before) {
				t.Fatalf("a failed operation changed state:\n got %+v\nwant %+v", after, before)
			}
			if err := a.ledger.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func realize(req Request) func(*Allocator) error {
	return func(a *Allocator) error { _, _, err := a.Realize(req); return err }
}

func propose(req Request) func(*Allocator) error {
	return func(a *Allocator) error { _, err := a.Propose(req); return err }
}

func restore(req Request, hosts ...topo.NodeID) func(*Allocator) error {
	return func(a *Allocator) error { _, err := a.Restore(req, hosts); return err }
}

func mustRealize(t *testing.T, a *Allocator, req Request) []topo.NodeID {
	t.Helper()
	hosts, pairs, err := a.Realize(req)
	if err != nil {
		t.Fatalf("realize %+v: %v", req, err)
	}
	if len(hosts) != req.VMs || len(pairs) != req.VMs-1 {
		t.Fatalf("realize %+v: hosts %v pairs %v", req, hosts, pairs)
	}
	return hosts
}

// TestAllocatorLifecycle is the success path: the what-if predicts the
// placement, Realize takes ledger, fabric and slots, Withdraw returns all
// three, and Restore re-takes exactly what a record names.
func TestAllocatorLifecycle(t *testing.T) {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	mat := &fakeMat{}
	a := NewAllocator(tb.Graph, mat, Config{Policy: Spread{}, SlotsPerHost: 4})
	empty := snapshot(a, mat)
	req := Request{ID: 7, GuaranteeBps: 2e9, VMs: 3, WeightClass: 5, BacklogBytes: 4096}

	predicted, err := a.Propose(req)
	if err != nil {
		t.Fatal(err)
	}
	if after := snapshot(a, mat); !reflect.DeepEqual(after, empty) {
		t.Fatalf("Propose committed something: %+v", after)
	}
	hosts := mustRealize(t, a, req)
	if !reflect.DeepEqual(hosts, predicted) {
		t.Fatalf("Propose predicted %v, Realize landed %v", predicted, hosts)
	}
	if len(mat.added) != 1 {
		t.Fatalf("materialized %d specs", len(mat.added))
	}
	sp := mat.added[0]
	if sp.VF != 7 || sp.GuaranteeBps != 2e9 || sp.WeightClass != 5 || len(sp.Pairs) != 2 ||
		sp.Pairs[0].Src != hosts[0] || sp.Pairs[1].Dst != hosts[2] || sp.Pairs[1].BacklogBytes != 4096 {
		t.Fatalf("materialized spec %+v for hosts %v", sp, hosts)
	}
	if !a.ledger.has(7) || a.fleet.FreeSlots() != 8*4-3 {
		t.Fatalf("realize took ledger=%v, %d free slots", a.ledger.has(7), a.fleet.FreeSlots())
	}
	placed := snapshot(a, mat)

	if !a.Withdraw(7) {
		t.Fatal("withdraw failed")
	}
	if len(mat.removed) != 1 || mat.removed[0] != 7 {
		t.Fatalf("removed %v", mat.removed)
	}
	after := snapshot(a, mat)
	after.added, after.removed = 0, 0
	if !reflect.DeepEqual(after, empty) {
		t.Fatalf("withdraw left state behind: %+v", after)
	}

	if _, err := a.Restore(req, hosts); err != nil {
		t.Fatalf("restore: %v", err)
	}
	after = snapshot(a, mat)
	after.added, after.removed = placed.added, placed.removed
	if !reflect.DeepEqual(after, placed) {
		t.Fatalf("restore of the recorded hosts diverged:\n got %+v\nwant %+v", after, placed)
	}
	if err := a.ledger.Verify(); err != nil {
		t.Fatal(err)
	}
}
