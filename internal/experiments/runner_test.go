package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// fastIDs is a representative, cheap subset of the registry used by the
// race-enabled determinism test (the full evaluation is covered by
// `ufabsim check` in CI, where the race detector's ~10x slowdown does not
// apply). It spans motivation figures, comparative incast runs, control
// laws, both resource-model tables, and two fault-injection experiments
// (link flaps and tenant churn) so chaos scheduling stays `-jobs`-proof,
// plus the control-plane suite's policy comparison, oversubscription sweep,
// admission-checked churn and reconciler convergence so placement decisions
// do too.
var fastIDs = []string{"fig1", "fig2", "fig3", "fig4", "fig12", "fig19", "tab3", "tab4", "flap", "churn", "placecmp", "placechurn", "placesweep", "reconcile"}

// TestParallelRunnerDeterminism is the CI gate for the tentpole claim: a
// parallel batch must produce Reports identical — field for field and
// byte for byte — to a sequential one, across several seeds.
func TestParallelRunnerDeterminism(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		opts := Options{Quick: true, Seed: seed}
		seq, par := batch(t, fastIDs, opts, 1), batch(t, fastIDs, opts, 8)
		for _, id := range fastIDs {
			a, b := seq[id], par[id]
			if as, bs := a.String(), b.String(); as != bs {
				t.Errorf("seed %d %s: rendered reports differ:\n--- sequential\n%s\n--- parallel\n%s",
					seed, id, as, bs)
			}
			// Field for field includes the registry's mutex, so no other
			// test reads the fastIDs batches.
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d %s: report structures differ", seed, id)
			}
		}
	}
}

// telemetryIDs keeps the instrumented determinism gate cheap while still
// spanning a baseline comparison (fig4), a multi-fabric experiment whose
// agents reattach to shared counter names (fig15), and a chaos run whose
// fault events land in the flight recorder (flap).
var telemetryIDs = []string{"fig4", "fig15", "flap"}

// snapshotAndTrace renders a run's full registry snapshot and flight
// recorder as bytes, the exact forms `ufabsim -metrics` and `ufabsim
// trace` export (the trace is the canonical merge across the run's
// per-shard recorders, which degenerates to the base recorder's stream
// for single-recorder runs).
func snapshotAndTrace(t *testing.T, r *Report) (string, string) {
	t.Helper()
	var snap, trace strings.Builder
	r.Reg.Snapshot().WriteJSON(&snap)
	if r.Reg.Recorder() == nil {
		t.Fatalf("%s: no flight recorder attached", r.ID)
	}
	if err := r.Reg.WriteTraceJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	return snap.String(), trace.String()
}

// TestTelemetryParallelDeterminism extends the runner gate to the
// instrumented path: with the registry and flight recorder attached, the
// exported snapshot JSON and trace JSONL must be bit-identical between a
// sequential and a parallel batch, across several seeds.
func TestTelemetryParallelDeterminism(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		opts := Options{Quick: true, Seed: seed, Telemetry: true}
		seq, par := batch(t, telemetryIDs, opts, 1), batch(t, telemetryIDs, opts, 8)
		for _, id := range telemetryIDs {
			aSnap, aTrace := snapshotAndTrace(t, seq[id])
			bSnap, bTrace := snapshotAndTrace(t, par[id])
			if aSnap != bSnap {
				t.Errorf("seed %d %s: registry snapshots differ between -jobs 1 and -jobs 8", seed, id)
			}
			if aTrace != bTrace {
				t.Errorf("seed %d %s: flight-recorder traces differ between -jobs 1 and -jobs 8", seed, id)
			}
			if aTrace == "" {
				t.Errorf("seed %d %s: empty trace — recorder saw no events", seed, id)
			}
		}
	}
}

// TestTelemetryDoesNotChangeResults guards the zero-feedback contract:
// attaching the registry and recorder must leave every headline metric
// exactly as in an uninstrumented run. fig15 rebuilds fabrics against one
// registry (the counter-reuse trap) and flap reads the fault-counter
// accessors, so both accessor paths are exercised.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	t.Parallel()
	for id, r := range batch(t, telemetryIDs, Options{Quick: true, Seed: 1, Telemetry: true}, 1) {
		if plain, inst := plainAll(t)[id].Metrics(), r.Metrics(); !reflect.DeepEqual(plain, inst) {
			t.Errorf("%s: metrics changed under telemetry:\noff: %v\non:  %v", id, plain, inst)
		}
	}
}

func TestRunnerResultsInJobOrder(t *testing.T) {
	// Jobs with deliberately inverted costs: if results were ordered by
	// completion, the slow first job would come last.
	mk := func(id string, d time.Duration) *Entry {
		return &Entry{ID: id, Title: id, Run: func(o Options) *Report {
			time.Sleep(d)
			return newReport(id, id)
		}}
	}
	jobs := []Job{
		{Entry: mk("slow", 50*time.Millisecond)},
		{Entry: mk("mid", 10*time.Millisecond)},
		{Entry: mk("fast", 0)},
	}
	results := (&Runner{Jobs: 3}).Run(jobs)
	for i, want := range []string{"slow", "mid", "fast"} {
		if results[i].Report == nil || results[i].Report.ID != want {
			t.Fatalf("result %d = %+v, want report %q", i, results[i], want)
		}
	}
}

func TestRunnerTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	stuck := &Entry{ID: "stuck", Title: "never finishes", Run: func(o Options) *Report {
		<-block
		return newReport("stuck", "late")
	}}
	ok := &Entry{ID: "ok", Title: "fine", Run: func(o Options) *Report {
		return newReport("ok", "fine")
	}}
	r := &Runner{Jobs: 2, Timeout: 20 * time.Millisecond}
	results := r.Run([]Job{{Entry: stuck}, {Entry: ok}})
	if !results[0].TimedOut || results[0].Err == nil || results[0].Report != nil {
		t.Fatalf("stuck run not reported as timeout: %+v", results[0])
	}
	if !strings.Contains(results[0].Err.Error(), "timeout") {
		t.Errorf("timeout error = %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Report == nil {
		t.Fatalf("healthy run was collateral damage: %+v", results[1])
	}
}

func TestRunnerPanicIsolation(t *testing.T) {
	boom := &Entry{ID: "boom", Title: "panics", Run: func(o Options) *Report {
		panic("synthetic failure")
	}}
	ok := &Entry{ID: "ok", Title: "fine", Run: func(o Options) *Report {
		return newReport("ok", "fine")
	}}
	results := (&Runner{Jobs: 1}).Run([]Job{{Entry: boom}, {Entry: ok}, {Entry: boom}})
	for _, i := range []int{0, 2} {
		if results[i].Err == nil || !strings.Contains(results[i].Err.Error(), "panicked") {
			t.Fatalf("result %d: panic not captured: %+v", i, results[i])
		}
	}
	if results[1].Err != nil || results[1].Report == nil {
		t.Fatalf("panic killed an unrelated run: %+v", results[1])
	}
}

func TestExpandIDs(t *testing.T) {
	jobs, err := ExpandIDs([]string{"fig1", "tab3"}, Options{Quick: true, Seed: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("len(jobs) = %d, want 6", len(jobs))
	}
	// Experiment-major order, seeds counting up from the base seed.
	for i, want := range []struct {
		id   string
		seed int64
	}{{"fig1", 5}, {"fig1", 6}, {"fig1", 7}, {"tab3", 5}, {"tab3", 6}, {"tab3", 7}} {
		if jobs[i].Entry.ID != want.id || jobs[i].Opts.Seed != want.seed {
			t.Errorf("job %d = (%s, seed %d), want (%s, seed %d)",
				i, jobs[i].Entry.ID, jobs[i].Opts.Seed, want.id, want.seed)
		}
		if !jobs[i].Opts.Quick {
			t.Errorf("job %d lost Quick", i)
		}
	}
	if _, err := ExpandIDs([]string{"nope"}, Options{}, 1); err == nil {
		t.Fatal("unknown id not rejected")
	}
}

func TestAllIDsMatchesRegistry(t *testing.T) {
	ids := AllIDs()
	if len(ids) != len(All) {
		t.Fatalf("AllIDs len %d, registry %d", len(ids), len(All))
	}
	for i := range ids {
		if ids[i] != All[i].ID {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], All[i].ID)
		}
	}
}
