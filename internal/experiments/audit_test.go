package experiments

import (
	"reflect"
	"strings"
	"testing"
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
		if r.Findings == nil {
			// No μFAB fabric under audit (resource-model tables,
			// baseline-only motivation figures).
			continue
		}
		if n := r.Findings.Unexcused(); n != 0 {
			t.Errorf("%s: %d unexcused finding(s):\n%s", r.ID, n, dumpFindings(t, r))
		}
		if d := r.Findings.Dropped(); d != 0 {
			t.Errorf("%s: findings log dropped %d findings (cap too small or auditor runaway)", r.ID, d)
		}
		if min := r.Findings.ExpectExcusedMin; r.Findings.Excused() < min {
			t.Errorf("%s: %d excused finding(s), scenario declares >= %d — injected faults were not observed",
				r.ID, r.Findings.Excused(), min)
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
