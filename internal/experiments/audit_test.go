package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ufab/internal/audit"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
)

// dumpFindings renders a findings log for a test failure message.
func dumpFindings(t *testing.T, r *Report) string {
	t.Helper()
	var b strings.Builder
	if err := r.Findings.WriteJSONL(&b); err != nil {
		t.Fatalf("%s: WriteJSONL: %v", r.ID, err)
	}
	return b.String()
}

// TestAuditAllExperimentsClean is the standing auditor gate: every
// fault-free experiment in the registry must audit clean — zero
// unexcused findings — and every fault-injection experiment must stay
// clean outside its declared fault windows while producing at least the
// excused findings its scenario declares.
func TestAuditAllExperimentsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full audited batch is not -short material")
	}
	t.Parallel()
	for _, id := range AllIDs() {
		r := auditedAll(t)[id]
		// A report with no μFAB fabric under audit (resource-model tables,
		// baseline-only motivation figures) has no findings log and passes.
		for _, err := range CheckAudit([]*Report{r}) {
			t.Errorf("%v\n%s", err, dumpFindings(t, r))
		}
	}
}

// auditLog returns a findings log capped at max findings that was offered
// excused findings inside a declared fault window and unexcused ones outside
// any, in that order.
func auditLog(max, excused, unexcused int) *audit.Log {
	log := &audit.Log{MaxFindings: max}
	const ms = int64(sim.Millisecond)
	for i, n := range []int{excused, unexcused} {
		a := audit.New(audit.Config{Log: log})
		if i == 0 {
			a.ObserveEvent(telemetry.Event{T: 4 * ms, Kind: telemetry.EvFault, A: 1, Note: "test"})
		}
		s := &audit.Sample{T: 1, Links: make([]audit.LinkSample, n)}
		for l := range s.Links {
			s.Links[l] = audit.LinkSample{Entity: fmt.Sprintf("link.a-b%d", l), HasCore: true}
		}
		a.Tick(s)
		for l := range s.Links {
			s.Links[l].PhiTokens = -1 // a negative register is a finding at once
		}
		s.T = 4 * ms // past the link's warm-up, inside the fault's window
		a.Tick(s)
	}
	return log
}

// TestCheckAudit holds the gate's predicate — the one auditCmd, `check
// -audit` and TestAuditAllExperimentsClean share — to its three conditions,
// each alone. The overflowed log whose surviving findings are all excused is
// the case `check -audit` used to pass.
func TestCheckAudit(t *testing.T) {
	declared := auditLog(0, 0, 0)
	declared.ExpectExcusedMin = 1
	observed := auditLog(0, 2, 0)
	observed.ExpectExcusedMin = 2
	for _, tc := range []struct {
		name string
		log  *audit.Log
		want []string // a fragment of each expected error, in order
	}{
		{"no fabric under audit", nil, nil},
		{"clean", auditLog(0, 0, 0), nil},
		{"declared faults observed", observed, nil},
		{"declared faults not observed", declared, []string{"0 excused finding(s), scenario declares >= 1"}},
		{"unexcused", auditLog(0, 1, 2), []string{"2 unexcused"}},
		{"overflowed, survivors excused", auditLog(2, 2, 3), []string{"dropped 3"}},
	} {
		failed := CheckAudit([]*Report{{ID: "x", Findings: tc.log}})
		if len(failed) != len(tc.want) {
			t.Errorf("%s: %d error(s) %v, want %d", tc.name, len(failed), failed, len(tc.want))
			continue
		}
		for i, err := range failed {
			if !strings.HasPrefix(err.Error(), "x: ") || !strings.Contains(err.Error(), tc.want[i]) {
				t.Errorf("%s: error %q, want \"x: …%s…\"", tc.name, err, tc.want[i])
			}
		}
	}
}

// auditIDs keeps the audited determinism gate cheap while spanning a
// baseline comparison (fig4), a multi-fabric run with a chaos crash
// (fig15), a fault-suite flap whose excuse windows must land identically
// (flap), the admission-checked churn whose ledger_bound invariant
// tracks the control plane's commitments (placechurn), and the
// reconciler convergence run whose crash/drain displacements must
// converge identically (reconcile).
var auditIDs = []string{"fig4", "fig15", "flap", "placechurn", "reconcile"}

// TestAuditParallelDeterminism extends the `-jobs`-proof gate to the
// audited path: with the auditor attached, both the rendered report and
// the exported findings JSONL must be byte-identical between a
// sequential and a parallel batch.
func TestAuditParallelDeterminism(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2} {
		opts := Options{Quick: true, Seed: seed, Audit: true}
		seq, par := batch(t, auditIDs, opts, 1), batch(t, auditIDs, opts, 8)
		for _, id := range auditIDs {
			a, b := seq[id], par[id]
			if as, bs := a.String(), b.String(); as != bs {
				t.Errorf("seed %d %s: rendered reports differ between -jobs 1 and -jobs 8", seed, id)
			}
			if af, bf := dumpFindings(t, a), dumpFindings(t, b); af != bf {
				t.Errorf("seed %d %s: findings JSONL differs between -jobs 1 and -jobs 8:\n--- sequential\n%s--- parallel\n%s",
					seed, id, af, bf)
			}
		}
	}
}

// TestAuditDoesNotChangeResults guards the auditor's pure-observer
// contract: enabling it must leave every headline metric of every
// experiment exactly as in an unaudited run.
func TestAuditDoesNotChangeResults(t *testing.T) {
	t.Parallel()
	for id, r := range auditedAll(t) {
		if plain, audited := plainAll(t)[id].Metrics(), r.Metrics(); !reflect.DeepEqual(plain, audited) {
			t.Errorf("%s: metrics changed under audit:\noff: %v\non:  %v", id, plain, audited)
		}
	}
}
