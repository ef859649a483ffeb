package ctlplane

// The watcher/reconciler: each reconcile pass folds the event-driven
// liveness view (fed by the flight recorder's dataplane fault events, see
// Service.WatchRecorder) into schedulability, demotes Placed tenants whose
// hosts died or are draining (tearing down their realized state), and
// re-places Pending/Degraded tenants under the retry/backoff budget. The
// pass is deterministic — tenants are visited in sorted-id order and the
// only inputs are the fleet, the ledger and the failed set, whose updates
// happen at fault-event times that are themselves pure functions of the
// scenario — so experiments driving it from simulated time are
// byte-identical across parallel runs.

import "ufab/internal/sim"

// reconcile runs one convergence pass at simulated time nowPS and
// returns how many tenants changed state.
func (s *Service) reconcile(nowPS int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reconcileLoops++
	changed := 0

	// Watch: refresh schedulability from the fault-event-driven failed
	// set ∨ drain. The set was updated synchronously as the recorder saw
	// each dataplane fault, so a pass at time T observes exactly the
	// faults before T — the same view the old fabric poll produced.
	fleet := s.alloc.Fleet()
	for i, h := range fleet.Hosts {
		fleet.Unschedulable[i] = s.failed[h] || s.draining[h]
	}

	ids := s.sortedIDsLocked()

	// Demote: a Placed tenant with any VM on an unschedulable host has
	// lost its guarantee; tear down what remains so re-placement starts
	// from a clean slate (no half-materialized state survives).
	for _, id := range ids {
		t := s.tenants[id]
		if t.Status != StatusPlaced || !s.displacedLocked(t) {
			continue
		}
		s.alloc.Withdraw(t.ID)
		s.degradeLocked(t, nowPS)
		s.displaced++
		changed++
	}

	// Converge: re-place what should be running but isn't.
	for _, id := range ids {
		t := s.tenants[id]
		if t.Status != statusPending && t.Status != statusDegraded {
			continue
		}
		if nowPS < t.NotBeforePS {
			continue
		}
		if d := s.placeLocked(t, nowPS); d.Accepted {
			s.replacements++
			_ = s.persistPutLocked(t) // best effort: see persistPutLocked
			changed++
			continue
		}
		t.Retries++
		s.retries++
		if t.Retries > s.cfg.maxRetries {
			t.Status = statusEvicted
			t.UpdatedPS = nowPS
			s.evictions++
		} else {
			// Exponential backoff: base·2^(retries-1).
			t.NotBeforePS = nowPS + int64(s.cfg.retryBackoff)<<uint(t.Retries-1)
			t.UpdatedPS = nowPS
		}
		_ = s.persistPutLocked(t) // best effort: see persistPutLocked
		changed++
	}
	s.flushLocked()
	return changed
}

// displacedLocked reports whether any of t's hosts is unschedulable.
func (s *Service) displacedLocked(t *Tenant) bool {
	fleet := s.alloc.Fleet()
	for _, h := range t.Hosts {
		if i := fleet.HostIndex(h); i >= 0 && fleet.Unschedulable[i] {
			return true
		}
	}
	return false
}

// StartReconciler schedules reconcile every period on the engine and
// returns the stop function. period ≤ 0 defaults to 500 µs — well inside
// the auditor's 5 ms fault-excuse window, so a crash-displaced tenant is
// re-placed before its findings can outlive the excuse.
func (s *Service) StartReconciler(eng sim.Scheduler, period sim.Duration) (stop func()) {
	if period <= 0 {
		period = 500 * sim.Microsecond
	}
	return eng.Every(period, func() {
		s.reconcile(int64(eng.Now()))
	})
}

// Recover rebuilds realized state from the store's desired records after
// a restart: Placed tenants are re-committed to the (fresh) ledger,
// their fleet slots retaken, and — when a materializer is attached — the
// fabric re-materialized. A tenant whose recorded placement no longer
// fits demotes to Degraded for the reconciler to re-place. Returns the
// ledger's Verify error, if any — the store-vs-ledger consistency check
// the restart contract requires.
func (s *Service) Recover(nowPS int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	for _, rec := range s.store.Tenants() {
		t := rec
		s.tenants[t.ID] = &t
	}
	for _, id := range s.sortedIDsLocked() {
		t := s.tenants[id]
		if t.Status != StatusPlaced {
			continue
		}
		if _, err := s.alloc.Restore(t.request(), t.Hosts); err != nil {
			s.degradeLocked(t, nowPS)
		}
	}
	s.flushLocked()
	return s.alloc.Ledger().Verify()
}
