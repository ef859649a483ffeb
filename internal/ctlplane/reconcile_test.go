package ctlplane

import (
	"testing"

	"ufab/internal/placement"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// watchedRecorder wires a fresh flight recorder into the service's
// event-driven watcher and returns helpers that record the dataplane
// fault events the watcher listens for.
func watchedRecorder(s *Service) (fail, heal func(at int64, h topo.NodeID)) {
	reg := telemetry.New()
	rec := reg.EnableRecorder(0)
	s.WatchRecorder(rec)
	ev := func(at int64, h topo.NodeID, down int64, note string) {
		rec.Record(telemetry.Event{
			T: at, Kind: telemetry.EvFault, Entity: "dataplane.node",
			A: int64(h), B: down, Note: note,
		})
	}
	return func(at int64, h topo.NodeID) { ev(at, h, 1, "fail") },
		func(at int64, h topo.NodeID) { ev(at, h, 0, "recover") }
}

// TestReconcileReplacesAfterNodeFailure: a recorded node-fault event
// displaces the host's tenants; the next reconcile pass tears them down
// and re-places them on live hosts, with the ledger verifying clean
// throughout.
func TestReconcileReplacesAfterNodeFailure(t *testing.T) {
	mat := newFakeMat()
	s := testService(t, nil, mat)
	fail, heal := watchedRecorder(s)

	var victims []topo.NodeID
	for id := int32(1); id <= 4; id++ {
		d := s.Admit(placement.Request{ID: id, GuaranteeBps: 1e9, VMs: 2}, 0)
		if !d.Accepted {
			t.Fatalf("admit %d: %+v", id, d)
		}
		if id == 1 {
			victims = d.Hosts
		}
	}
	dead := victims[0]
	fail(500, dead)

	if n := s.reconcile(1000); n == 0 {
		t.Fatal("reconcile saw nothing to do")
	}
	st := s.Stats()
	if st.Displaced == 0 || st.Replacements == 0 || st.Evictions != 0 {
		t.Fatalf("stats %+v: want displacements and replacements, no evictions", st)
	}
	for _, tn := range s.tenantList() {
		if tn.Status != StatusPlaced {
			t.Fatalf("tenant %d not converged: %+v", tn.ID, tn)
		}
		for _, h := range tn.Hosts {
			if h == dead {
				t.Fatalf("tenant %d still on dead host %d", tn.ID, h)
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}

	// A second pass with nothing changed must be a no-op.
	if n := s.reconcile(2000); n != 0 {
		t.Fatalf("steady-state reconcile changed %d tenants", n)
	}

	// A recovery event restores schedulability: an admission spanning
	// every host (including the recovered one) must land.
	heal(3000, dead)
	s.reconcile(3000)
	if d := s.Admit(placement.Request{ID: 9, GuaranteeBps: 1e9, VMs: 8}, 4000); !d.Accepted {
		t.Fatalf("admit spanning the recovered host: %+v", d)
	}
}

// TestReconcileDrainEvacuation: draining a host evacuates its tenants in
// one pass (demote + immediate re-place) and no new placement lands on it
// until uncordoned.
func TestReconcileDrainEvacuation(t *testing.T) {
	mat := newFakeMat()
	s := testService(t, nil, mat)
	d := s.Admit(placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, 0)
	if !d.Accepted {
		t.Fatalf("admit: %+v", d)
	}
	drained := d.Hosts[1]
	if !s.Drain(drained) {
		t.Fatal("drain refused")
	}
	s.reconcile(1000)
	tn, _ := s.Get(1)
	if tn.Status != StatusPlaced {
		t.Fatalf("tenant not re-placed after drain: %+v", tn)
	}
	for _, h := range tn.Hosts {
		if h == drained {
			t.Fatalf("tenant still on draining host %d", h)
		}
	}
	// New admissions avoid the drained host too.
	d2 := s.Admit(placement.Request{ID: 2, GuaranteeBps: 1e9, VMs: 7}, 2000)
	if !d2.Accepted {
		t.Fatalf("admit onto 7 remaining hosts failed: %+v", d2)
	}
	for _, h := range d2.Hosts {
		if h == drained {
			t.Fatal("policy placed onto a draining host")
		}
	}
	if !s.Uncordon(drained) {
		t.Fatal("uncordon refused")
	}
	d3 := s.Admit(placement.Request{ID: 3, GuaranteeBps: 1e9, VMs: 8}, 3000)
	if !d3.Accepted {
		t.Fatalf("admit spanning the uncordoned host failed: %+v", d3)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileBackoffAndEviction: when re-placement cannot succeed the
// retry counter walks the exponential backoff schedule and the tenant is
// evicted once the budget is spent — never sooner, never spinning.
func TestReconcileBackoffAndEviction(t *testing.T) {
	mat := newFakeMat()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	s := NewService(tb.Graph, nil, mat, Config{
		SlotsPerHost: 4,
		maxPaths:     4,
		maxRetries:   3,
		retryBackoff: 100, // 100 ps base, doubling
	})
	fail, _ := watchedRecorder(s)

	d := s.Admit(placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 2}, 0)
	if !d.Accepted {
		t.Fatalf("admit: %+v", d)
	}
	// Kill every host: re-placement is impossible.
	for _, h := range s.Fleet().Hosts {
		fail(500, h)
	}
	now := int64(1000)
	s.reconcile(now) // demote + retry 1 fails
	tn, _ := s.Get(1)
	if tn.Status != statusDegraded || tn.Retries != 1 {
		t.Fatalf("after first pass: %+v", tn)
	}
	if tn.NotBeforePS != now+100 {
		t.Fatalf("backoff gate %d, want %d", tn.NotBeforePS, now+100)
	}
	// Before the gate: no attempt is burned.
	s.reconcile(now + 50)
	if tn, _ = s.Get(1); tn.Retries != 1 {
		t.Fatalf("retry burned before backoff expired: %+v", tn)
	}
	// Walk the schedule to eviction: retries 2, 3, then budget exhausted.
	for i := 0; i < 3; i++ {
		tn, _ = s.Get(1)
		now = tn.NotBeforePS
		s.reconcile(now)
	}
	tn, _ = s.Get(1)
	if tn.Status != statusEvicted {
		t.Fatalf("not evicted after budget: %+v", tn)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Retries != 4 {
		t.Fatalf("stats %+v: want 1 eviction after 4 failed attempts", st)
	}
	// Evicted tenants hold nothing.
	if s.Ledger().Tenants() != 0 || len(mat.live) != 0 {
		t.Fatal("evicted tenant still holds resources")
	}
	// And stay evicted: reconcile is a no-op now.
	if n := s.reconcile(now + 1_000_000); n != 0 {
		t.Fatalf("evicted tenant still being reconciled (%d changes)", n)
	}
}
