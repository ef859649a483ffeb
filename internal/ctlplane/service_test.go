package ctlplane

import (
	"reflect"
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/topo"
)

// fakeMat is a Materializer double: it records live specs and can be told
// to refuse the next AddTenant (to exercise rollback).
type fakeMat struct {
	live    map[int32]chaos.TenantSpec
	refuse  bool
	adds    int
	removes int
}

func newFakeMat() *fakeMat { return &fakeMat{live: make(map[int32]chaos.TenantSpec)} }

func (m *fakeMat) AddTenant(spec chaos.TenantSpec) bool {
	if m.refuse {
		return false
	}
	m.adds++
	m.live[spec.VF] = spec
	return true
}

func (m *fakeMat) RemoveTenant(vf int32) bool {
	if _, ok := m.live[vf]; !ok {
		return false
	}
	m.removes++
	delete(m.live, vf)
	return true
}

func testService(t *testing.T, store *Store, mat placement.Materializer) *Service {
	t.Helper()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	return NewService(tb.Graph, store, mat, Config{
		SlotsPerHost: 4,
		maxPaths:     4,
	})
}

func TestServiceAdmitEvaluateRelease(t *testing.T) {
	mat := newFakeMat()
	s := testService(t, nil, mat)

	ev := s.Evaluate(placement.Request{ID: 1, GuaranteeBps: 2e9, VMs: 2})
	if !ev.Accepted {
		t.Fatalf("evaluate rejected: %s", ev.Reason)
	}
	if s.Stats().Desired != 0 {
		t.Fatal("evaluate must not commit anything")
	}

	d := s.Admit(placement.Request{ID: 1, GuaranteeBps: 2e9, VMs: 2, WeightClass: 5}, 10)
	if !d.Accepted || len(d.Hosts) != 2 {
		t.Fatalf("admit: %+v", d)
	}
	if !reflect.DeepEqual(ev.Hosts, d.Hosts) {
		t.Fatalf("evaluate predicted %v, admit landed %v", ev.Hosts, d.Hosts)
	}
	if mat.adds != 1 {
		t.Fatalf("materialized %d times", mat.adds)
	}
	tn, ok := s.Get(1)
	if !ok || tn.Status != StatusPlaced {
		t.Fatalf("tenant record %+v", tn)
	}
	if dup := s.Admit(placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 1}, 11); dup.Accepted || dup.Reason != "duplicate" {
		t.Fatalf("duplicate admit: %+v", dup)
	}
	if !s.Release(1, 20) {
		t.Fatal("release failed")
	}
	if mat.removes != 1 || s.Ledger().Tenants() != 0 || s.Fleet().FreeSlots() != 8*4 {
		t.Fatalf("release left state: removes=%d ledger=%d slots=%d",
			mat.removes, s.Ledger().Tenants(), s.Fleet().FreeSlots())
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceMaterializeRollback: when the fabric refuses a spec, the
// ledger commitment and fleet slots must both roll back.
func TestServiceMaterializeRollback(t *testing.T) {
	mat := newFakeMat()
	mat.refuse = true
	s := testService(t, nil, mat)
	d := s.Admit(placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, 0)
	if d.Accepted || d.Reason != "materialize" {
		t.Fatalf("decision %+v", d)
	}
	if s.Ledger().Tenants() != 0 {
		t.Fatal("ledger commitment leaked")
	}
	if got := s.Fleet().FreeSlots(); got != 8*4 {
		t.Fatalf("fleet slots leaked: %d free", got)
	}
	if s.Stats().Desired != 0 {
		t.Fatal("rejected tenant left a desired record")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceAdmitStoreFailure: an admission whose WAL append fails must
// not be answered "accepted" — it would vanish on restart. The realized
// state is torn back down and the request rejected with reason "store".
func TestServiceAdmitStoreFailure(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mat := newFakeMat()
	s := testService(t, st, mat)
	if d := s.Admit(placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, 0); !d.Accepted {
		t.Fatalf("admit with a healthy store: %+v", d)
	}
	s.Release(1, 1)
	st.Close() // every later append fails

	d := s.Admit(placement.Request{ID: 2, GuaranteeBps: 1e9, VMs: 2}, 2)
	if d.Accepted || d.Reason != "store" {
		t.Fatalf("decision %+v, want rejected with reason store", d)
	}
	if got := s.Ledger().Tenants(); got != 0 {
		t.Fatalf("ledger holds %d tenants after the rollback", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := s.Fleet().FreeSlots(); got != 8*4 {
		t.Fatalf("fleet slots leaked: %d free", got)
	}
	if len(mat.live) != 0 {
		t.Fatalf("fabric still holds %d tenants", len(mat.live))
	}
	if st := s.Stats(); st.Desired != 0 || st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("rejected tenant left a desired record")
	}
}

// TestServiceRecover: a fresh service over a reopened store reproduces
// the exact pre-crash desired set, ledger commitments and fleet slots.
func TestServiceRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mat := newFakeMat()
	s := testService(t, st, mat)
	for id := int32(1); id <= 4; id++ {
		if d := s.Admit(placement.Request{ID: id, GuaranteeBps: 1e9, VMs: 2}, int64(id)); !d.Accepted {
			t.Fatalf("admit %d: %+v", id, d)
		}
	}
	s.Release(2, 100)
	before := s.tenantList()
	links := map[topo.LinkID]float64{}
	for lid := range s.Ledger().Graph().Links {
		links[topo.LinkID(lid)] = s.Ledger().CommittedBps(topo.LinkID(lid))
	}
	usedBefore := append([]int(nil), s.Fleet().Used...)
	st.Close() // simulated crash: no final snapshot

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mat2 := newFakeMat()
	s2 := testService(t, st2, mat2)
	if err := s2.Recover(200); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := s2.tenantList(); !reflect.DeepEqual(got, before) {
		t.Fatalf("desired set diverged:\n got %+v\nwant %+v", got, before)
	}
	for lid, want := range links {
		if got := s2.Ledger().CommittedBps(lid); got != want {
			t.Fatalf("link %d: recovered %v, want %v", lid, got, want)
		}
	}
	if !reflect.DeepEqual(s2.Fleet().Used, usedBefore) {
		t.Fatalf("fleet slots diverged: %v vs %v", s2.Fleet().Used, usedBefore)
	}
	if mat2.adds != 3 {
		t.Fatalf("re-materialized %d tenants, want 3", mat2.adds)
	}
	if err := s2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRecoverHostileRecords: a store file is outside input. A
// Placed record whose hosts are outside the graph, are not hosts, repeat,
// or do not match its VM count must demote to Degraded — no index panic,
// no slot charged to some other host — while a sound record beside them
// recovers.
func TestServiceRecoverHostileRecords(t *testing.T) {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	h := tb.Servers
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[int32][]topo.NodeID{
		1: {h[0], 9999},
		2: {-1, h[1]},
		3: {h[0], tb.ToRs[0]},
		4: {h[2], h[3], h[2]},
		5: {h[4]},
		6: nil,
	}
	for id, hosts := range bad {
		vms := 2
		if id == 4 {
			vms = 3
		}
		if err := st.Put(Tenant{ID: id, GuaranteeBps: 1e9, VMs: vms, Status: StatusPlaced, Hosts: hosts}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	mat := newFakeMat()
	s := testService(t, st2, mat)
	if err := s.Recover(50); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for id := range bad {
		tn, _ := s.Get(id)
		if tn.Status != statusDegraded || tn.Hosts != nil || tn.NotBeforePS != 50 {
			t.Fatalf("tenant %d after recovery: %+v, want Degraded with no hosts", id, tn)
		}
	}
	for i, u := range s.Fleet().Used {
		if u != 0 {
			t.Fatalf("a rejected record charged host index %d: Used = %v", i, s.Fleet().Used)
		}
	}
	if s.Ledger().Tenants() != 0 || mat.adds != 0 {
		t.Fatalf("rejected records reached the ledger (%d) or fabric (%d)", s.Ledger().Tenants(), mat.adds)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// The reconciler then re-places them like any other Degraded tenant.
	s.reconcile(100)
	if got := s.StatusCounts()[StatusPlaced]; got != len(bad) {
		t.Fatalf("%d of %d demoted tenants re-placed: %v", got, len(bad), s.StatusCounts())
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
