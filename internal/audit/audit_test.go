package audit

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ufab/internal/telemetry"
)

// tickPS is the synthetic sampling interval (100 µs): the defaults then
// mean a 20-tick rate window and a 30-tick warmup.
const tickPS = int64(100_000_000)

// feed describes one synthetic fabric driven tick by tick: a single VF
// with one backlogged pair on one link, with independently settable
// delivery rate, link utilization and register values.
type feed struct {
	a *Auditor
	t int64

	guaranteeBps float64
	pairRateBps  float64 // pair's delivery rate
	pairPhiBps   float64
	backlogged   bool
	linkRateBps  float64 // link's total tx rate (pair + background)
	targetBps    float64
	queueBytes   int64
	windowBytes  int64
	phiTokens    float64
	livePhi      float64
}

func newFeed(cfg Config) *feed {
	return &feed{
		a:            New(cfg),
		guaranteeBps: 4e9,
		pairRateBps:  4e9,
		pairPhiBps:   4e9,
		backlogged:   true,
		linkRateBps:  9e9,
		targetBps:    9.5e9,
		queueBytes:   1000,
		windowBytes:  100_000,
		phiTokens:    40,
		livePhi:      40,
	}
}

// run advances n ticks.
func (f *feed) run(n int) {
	for i := 0; i < n; i++ {
		f.t += tickPS
		bytesAt := func(rate float64) int64 { return int64(rate / 8 * float64(f.t) / 1e12) }
		s := &Sample{
			T: f.t,
			Links: []LinkSample{{
				Entity:        "link.a-b",
				TargetBps:     f.targetBps,
				TxBytes:       uint64(bytesAt(f.linkRateBps)),
				QueueBytes:    f.queueBytes,
				HasCore:       true,
				PhiTokens:     f.phiTokens,
				WindowBytes:   f.windowBytes,
				LivePhiCand:   f.livePhi,
				LivePhiActive: f.livePhi,
			}},
			Pairs: []PairSample{{
				VM: 100, VF: 1, PhiBps: f.pairPhiBps, Backlogged: f.backlogged,
				Delivered: bytesAt(f.pairRateBps), Links: []int32{0},
			}},
			VFs: []VFSample{{ID: 1, GuaranteeBps: f.guaranteeBps}},
		}
		f.a.Tick(s)
	}
}

func TestMinBWViolation(t *testing.T) {
	f := newFeed(Config{})
	f.pairRateBps = 2e9 // half the guarantee, persistently
	f.run(100)          // 10 ms
	fs := f.a.Log().Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly one merged min-BW finding", fs)
	}
	fd := fs[0]
	if fd.Kind != MinBWViolation || fd.VF != 1 || fd.Entity != "vf.1" || fd.Unit != "bps" {
		t.Fatalf("finding = %+v, want min_bw on vf.1", fd)
	}
	// Eligible once past warmup (3 ms) with a window-covering backlog; runs
	// to the end.
	if fd.FromPS < 3_000_000_000 || fd.FromPS > 4_000_000_000 {
		t.Fatalf("FromPS = %d, want within [3ms, 4ms]", fd.FromPS)
	}
	if fd.ToPS != f.t {
		t.Fatalf("ToPS = %d, want last tick %d", fd.ToPS, f.t)
	}
	if fd.Ticks < 50 {
		t.Fatalf("Ticks = %d, want the whole violating streak merged", fd.Ticks)
	}
	if fd.Bound != 0.9*4e9 {
		t.Fatalf("Bound = %g, want (1-tol)*guarantee = %g", fd.Bound, 0.9*4e9)
	}
	if fd.Observed > fd.Bound || fd.Observed < 1.5e9 {
		t.Fatalf("Observed = %g, want ≈ 2e9 below bound", fd.Observed)
	}
	if fd.Excused {
		t.Fatalf("finding excused with no declared fault window: %+v", fd)
	}
	if f.a.Log().Unexcused() != 1 || f.a.Log().Excused() != 0 {
		t.Fatalf("Unexcused/Excused = %d/%d, want 1/0",
			f.a.Log().Unexcused(), f.a.Log().Excused())
	}
}

func TestCleanRunNoFindings(t *testing.T) {
	f := newFeed(Config{})
	f.run(200) // 20 ms at exactly the guarantee
	if fs := f.a.Log().Findings(); len(fs) != 0 {
		t.Fatalf("clean run produced findings: %+v", fs)
	}
}

func TestIdleTenantNotChecked(t *testing.T) {
	f := newFeed(Config{})
	f.backlogged = false
	f.pairRateBps = 0 // idle tenant sends nothing — Eqn 1 doesn't apply
	f.run(100)
	if fs := f.a.Log().Findings(); len(fs) != 0 {
		t.Fatalf("idle tenant produced findings: %+v", fs)
	}
}

func TestWorkConservationViolation(t *testing.T) {
	f := newFeed(Config{})
	// The pair is the only user of a mostly idle link, meets its guarantee,
	// but claims none of the spare capacity.
	f.guaranteeBps = 2e9
	f.pairPhiBps = 2e9
	f.pairRateBps = 2e9
	f.linkRateBps = 2e9
	f.run(100)
	fs := f.a.Log().Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly one work-conservation finding", fs)
	}
	fd := fs[0]
	if fd.Kind != workConservationViolation || fd.VF != 1 || fd.Entity != "vf.1.pair.100" {
		t.Fatalf("finding = %+v, want work_conservation on vf.1.pair.100", fd)
	}
	if fd.Observed < 1.5e9 || fd.Observed > fd.Bound {
		t.Fatalf("Observed = %g Bound = %g, want rate below guarantee+gain·spare",
			fd.Observed, fd.Bound)
	}
}

func TestQueueBoundViolation(t *testing.T) {
	f := newFeed(Config{})
	f.queueBytes = 1 << 20 // 1 MiB against a 64KiB + 1.5·100KB bound
	f.run(60)
	fs := f.a.Log().Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly one queue-bound finding", fs)
	}
	fd := fs[0]
	if fd.Kind != queueBoundViolation || fd.VF != -1 || fd.Entity != "link.a-b" || fd.Unit != "bytes" {
		t.Fatalf("finding = %+v, want queue_bound on link.a-b", fd)
	}
	if fd.Observed != float64(1<<20) {
		t.Fatalf("Observed = %g, want the queue depth", fd.Observed)
	}
	wantBound := float64(64<<10) + 1.5*100_000
	if fd.Bound != wantBound {
		t.Fatalf("Bound = %g, want floor+factor·W = %g", fd.Bound, wantBound)
	}
}

func TestAccountingNegativeRegister(t *testing.T) {
	f := newFeed(Config{})
	f.phiTokens = -5
	f.livePhi = 2
	// Stop before the under-count hold elapses: the negative-register check
	// alone must fire (it needs no persistence).
	f.run(45) // 4.5 ms: 1.5 ms of violation < 2 ms AcctHoldPS
	fs := f.a.Log().Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly one negative-register finding", fs)
	}
	fd := fs[0]
	if fd.Kind != accountingViolation || fd.VF != -1 || fd.Entity != "link.a-b" || fd.Unit != "tokens" {
		t.Fatalf("finding = %+v, want accounting on link.a-b", fd)
	}
	if fd.Observed != -5 || fd.Bound != 0 {
		t.Fatalf("Observed/Bound = %g/%g, want -5/0", fd.Observed, fd.Bound)
	}
}

func TestAccountingOverCount(t *testing.T) {
	f := newFeed(Config{})
	f.phiTokens = 100 // register residue: live pairs only sum to 40
	f.run(100)
	fs := f.a.Log().Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly one over-count finding", fs)
	}
	fd := fs[0]
	if fd.Kind != accountingViolation || fd.Observed != 100 {
		t.Fatalf("finding = %+v, want accounting with observed 100", fd)
	}
	if want := 40*1.1 + 4; fd.Bound != want {
		t.Fatalf("Bound = %g, want live·(1+tol)+abs = %g", fd.Bound, want)
	}
}

func TestFaultExcusesFinding(t *testing.T) {
	f := newFeed(Config{})
	f.pairRateBps = 2e9
	// A chaos fault applied at 3 ms opens a 5 ms excuse window that the
	// violating interval overlaps.
	f.a.ObserveEvent(telemetry.Event{
		T: 3_000_000_000, Kind: telemetry.EvFault,
		Entity: "chaos.injector", A: 1, Note: "link_fail",
	})
	f.run(80)
	l := f.a.Log()
	fs := l.Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want one excused min-BW finding", fs)
	}
	fd := fs[0]
	if !fd.Excused || fd.Excuse != "fault:link_fail" {
		t.Fatalf("finding = %+v, want excused by fault:link_fail", fd)
	}
	if l.Unexcused() != 0 || l.Excused() != 1 {
		t.Fatalf("Unexcused/Excused = %d/%d, want 0/1", l.Unexcused(), l.Excused())
	}
	// The fault event must surface in the finding's context window.
	found := false
	for _, ev := range fd.Context {
		if ev.Kind == telemetry.EvFault && ev.Note == "link_fail" {
			found = true
		}
	}
	if !found {
		t.Fatalf("context %+v lacks the fault event", fd.Context)
	}
}

func TestFaultyPairSkipped(t *testing.T) {
	f := newFeed(Config{})
	f.pairRateBps = 1e9 // would violate…
	f.run(50)
	// …but mark the pair's path faulty from here on: the backlog streak
	// breaks and no further eligibility accrues. The pre-fault streak is
	// excused-less but also unexcused — so instead keep it faulty from the
	// start in a second auditor.
	f2 := newFeed(Config{})
	f2.pairRateBps = 1e9
	f2.backlogged = true
	for i := 0; i < 100; i++ {
		f2.t += tickPS
		s := &Sample{
			T:     f2.t,
			Links: []LinkSample{{Entity: "link.a-b", TargetBps: 9.5e9, Faulty: true}},
			Pairs: []PairSample{{VM: 100, VF: 1, PhiBps: 4e9, Backlogged: true,
				Faulty: true, Delivered: int64(1e9 / 8 * float64(f2.t) / 1e12), Links: []int32{0}}},
			VFs: []VFSample{{ID: 1, GuaranteeBps: 4e9}},
		}
		f2.a.Tick(s)
	}
	if fs := f2.a.Log().Findings(); len(fs) != 0 {
		t.Fatalf("faulty-path pair produced findings: %+v", fs)
	}
}

func TestFindingsJSONL(t *testing.T) {
	f := newFeed(Config{})
	f.pairRateBps = 2e9
	f.a.ObserveEvent(telemetry.Event{
		T: 3_500_000_000, Kind: telemetry.EvMigration,
		Entity: "ufabe.h0", A: 100, B: 1, Note: "urgent",
	})
	f.run(80)
	var buf bytes.Buffer
	if err := f.a.Log().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("JSONL = %q, want one line", out)
	}
	if !strings.HasPrefix(lines[0], `{"kind":"min_bw","from_ps":`) {
		t.Fatalf("line = %q, want min_bw object", lines[0])
	}
	if !strings.Contains(lines[0], `"vf":1`) || !strings.Contains(lines[0], `"unit":"bps"`) {
		t.Fatalf("line = %q, want vf and unit fields", lines[0])
	}
	if !strings.Contains(lines[0], `"events":[{"t_ps":3500000000,"kind":"migration"`) {
		t.Fatalf("line = %q, want embedded context events", lines[0])
	}
	// A second serialization is byte-identical (Findings/Flush idempotent).
	var buf2 bytes.Buffer
	if err := f.a.Log().WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatalf("re-serialization differs:\n%q\n%q", buf2.String(), out)
	}
}

// TestNonFiniteValuesStayValidJSON: a NaN or infinite event value, finding
// observation or bound is written as null, so trace.jsonl, findings.jsonl
// and /v1/findings stay one valid JSON object per line; finite values keep
// their shortest form.
func TestNonFiniteValuesStayValidJSON(t *testing.T) {
	reg := telemetry.New()
	rec := reg.EnableRecorder(0)
	var evs []telemetry.Event
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2.5} {
		ev := telemetry.Event{T: int64(i), Kind: telemetry.EvDrop, Entity: "link.a-b", V: v, Note: "overflow"}
		rec.Record(ev)
		evs = append(evs, ev)
	}
	log := &Log{}
	log.add(Finding{Kind: queueBoundViolation, VF: -1, Entity: "link.a-b", Observed: math.Inf(1), Bound: math.NaN(), Unit: "bytes", Context: evs})
	log.add(Finding{Kind: MinBWViolation, VF: 1, Entity: "vf.1", Observed: 1.5e9, Bound: math.Inf(-1), Unit: "bps"})
	var trace, findings bytes.Buffer
	if err := reg.WriteTraceJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteJSONL(&findings); err != nil {
		t.Fatal(err)
	}
	out := trace.String() + findings.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 4 events and 2 findings:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("not valid JSON: %s", line)
		}
	}
	for _, want := range []string{`"v":null`, `"v":2.5`, `"observed":null,"bound":null`, `"observed":1.5e+09,"bound":null`} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %s:\n%s", want, out)
		}
	}
}

func TestSharedLogAcrossAuditors(t *testing.T) {
	log := &Log{}
	f1 := newFeed(Config{Log: log})
	f2 := newFeed(Config{Log: log})
	f1.pairRateBps = 2e9
	f2.queueBytes = 1 << 20
	f1.run(80)
	f2.run(80)
	fs := log.Findings()
	if len(fs) != 2 {
		t.Fatalf("findings = %+v, want one per fabric", fs)
	}
	if fs[0].Kind != MinBWViolation || fs[1].Kind != queueBoundViolation {
		t.Fatalf("kinds = %v/%v, want min_bw then queue_bound", fs[0].Kind, fs[1].Kind)
	}
}

func TestMaxFindingsCap(t *testing.T) {
	log := &Log{MaxFindings: 2}
	f := newFeed(Config{Log: log})
	f.pairRateBps = 2e9
	// Alternate violation and recovery to mint many separate streaks.
	for i := 0; i < 6; i++ {
		f.pairRateBps = 2e9
		f.run(60)
		f.pairRateBps = 4.2e9
		f.run(40)
	}
	if got := len(log.Findings()); got != 2 {
		t.Fatalf("retained = %d, want cap 2", got)
	}
	if log.Dropped() == 0 {
		t.Fatal("Dropped = 0, want overflow accounted")
	}
}

func TestDisableFlags(t *testing.T) {
	f := newFeed(Config{
		disableMinBW: true, disableWorkConservation: true,
		DisableQueueBound: true, disableAccounting: true,
	})
	f.pairRateBps = 1e9
	f.queueBytes = 1 << 20
	f.phiTokens = -5
	f.run(100)
	if fs := f.a.Log().Findings(); len(fs) != 0 {
		t.Fatalf("disabled checks produced findings: %+v", fs)
	}
}
