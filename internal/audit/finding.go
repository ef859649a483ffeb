package audit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ufab/internal/telemetry"
)

// Kind classifies a predictability violation.
type Kind uint8

const (
	// MinBWViolation: a fully backlogged VF's achieved rate stayed below
	// its hose guarantee minus the tolerance (Eqn 1).
	MinBWViolation Kind = iota
	// workConservationViolation: a backlogged pair left persistent spare
	// capacity on every link of its active path unclaimed.
	workConservationViolation
	// queueBoundViolation: a link's queue exceeded the admission-derived
	// bound outside any declared fault window.
	queueBoundViolation
	// accountingViolation: a μFAB-C register (Φ_l/W_l) went negative or
	// persistently disagreed with the live VM-pair set.
	accountingViolation
	// ledgerBoundViolation: a link's realized Φ_l subscription persistently
	// exceeded the admission ledger's committed subscription — tenants the
	// control plane never admitted are consuming guarantee on the link.
	ledgerBoundViolation
)

var kindNames = [...]string{
	MinBWViolation:            "min_bw",
	workConservationViolation: "work_conservation",
	queueBoundViolation:       "queue_bound",
	accountingViolation:       "accounting",
	ledgerBoundViolation:      "ledger_bound",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Finding is one merged violation interval: consecutive violating ticks of
// the same check on the same subject collapse into a single finding.
type Finding struct {
	Kind Kind
	// FromPS/ToPS bound the violating tick range in simulated picoseconds.
	FromPS, ToPS int64
	// Ticks is how many auditor ticks observed the violation.
	Ticks int
	// VF is the tenant involved (-1 for link-scoped findings).
	VF int32
	// Entity names the subject: "vf.<id>" or the link entity.
	Entity string
	// Observed is the worst measured value over the interval; Bound the
	// invariant's limit at that point; Unit names both ("bps", "bytes",
	// "tokens").
	Observed, Bound float64
	Unit            string
	// Excused marks findings overlapping a declared fault window; Excuse
	// says which ("fault:<kind>").
	Excused bool
	Excuse  string
	// Context is the surrounding flight-recorder window: fault, migration,
	// freeze, stage, tenant and drop events near the violating interval.
	Context []telemetry.Event
}

// Log collects findings from one run, across every auditor attached to it
// (one per audited fabric). The zero value is usable.
type Log struct {
	findings []Finding
	dropped  int
	auditors []*Auditor

	// MaxFindings bounds the log (0 = defaultMaxFindings); merged streaks
	// keep real runs far below it, the cap only contains pathological
	// misconfiguration.
	MaxFindings int

	// ExpectExcusedMin declares how many excused findings a chaos scenario
	// is expected to produce; gates use it to assert the auditor actually
	// observed the injected faults.
	ExpectExcusedMin int

	subs []func(Finding)
}

// defaultMaxFindings bounds a Log when MaxFindings is zero.
const defaultMaxFindings = 1024

func (l *Log) attach(a *Auditor) { l.auditors = append(l.auditors, a) }

func (l *Log) add(f Finding) {
	max := l.MaxFindings
	if max == 0 {
		max = defaultMaxFindings
	}
	if len(l.findings) >= max {
		l.dropped++
		return
	}
	l.findings = append(l.findings, f)
	for _, fn := range l.subs {
		fn(f)
	}
}

// Subscribe registers fn to run synchronously on every finding as it is
// recorded (after streak merging, before the MaxFindings cap drops
// anything new). fn runs on the auditor's goroutine and must not block or
// re-enter the Log; the control-plane daemon uses it to stream findings
// over its northbound API. Subscribe before the run starts — it is not
// safe to call concurrently with add.
func (l *Log) Subscribe(fn func(Finding)) { l.subs = append(l.subs, fn) }

// Findings flushes every attached auditor's open violation streaks and
// returns all findings in emission order.
func (l *Log) Findings() []Finding {
	if l == nil {
		return nil
	}
	for _, a := range l.auditors {
		a.Flush()
	}
	return l.findings
}

// Dropped returns how much of the run the log does not account for: findings
// the MaxFindings cap discarded, plus flight-recorder events evicted before an
// auditor saw them (Auditor.MissedEvents).
func (l *Log) Dropped() int {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Unexcused counts findings outside any declared fault window — the
// number that must be zero for a fault-free run to audit clean.
func (l *Log) Unexcused() int {
	n := 0
	for _, f := range l.Findings() {
		if !f.Excused {
			n++
		}
	}
	return n
}

// Excused counts findings inside declared fault windows.
func (l *Log) Excused() int {
	n := 0
	for _, f := range l.Findings() {
		if f.Excused {
			n++
		}
	}
	return n
}

// UnexcusedKinds returns the distinct kinds of unexcused findings as
// their stable names, sorted — the compact violation signature fuzzing
// and shrinking classify runs by.
func (l *Log) UnexcusedKinds() []string {
	seen := map[string]bool{}
	var kinds []string
	for _, f := range l.Findings() {
		if f.Excused || seen[f.Kind.String()] {
			continue
		}
		seen[f.Kind.String()] = true
		kinds = append(kinds, f.Kind.String())
	}
	sort.Strings(kinds)
	return kinds
}

// WriteJSONL writes the findings one JSON object per line, oldest first.
// Hand-rolled like the flight recorder's encoder: fixed field order,
// zero-valued fields omitted, byte-identical across identical runs.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range l.Findings() {
		writeFindingJSON(bw, f)
	}
	return bw.Flush()
}

func writeFindingJSON(bw *bufio.Writer, f Finding) {
	bw.WriteString(`{"kind":"`)
	bw.WriteString(f.Kind.String())
	bw.WriteString(`","from_ps":`)
	bw.WriteString(strconv.FormatInt(f.FromPS, 10))
	bw.WriteString(`,"to_ps":`)
	bw.WriteString(strconv.FormatInt(f.ToPS, 10))
	bw.WriteString(`,"ticks":`)
	bw.WriteString(strconv.Itoa(f.Ticks))
	if f.VF >= 0 {
		bw.WriteString(`,"vf":`)
		bw.WriteString(strconv.FormatInt(int64(f.VF), 10))
	}
	if f.Entity != "" {
		bw.WriteString(`,"entity":`)
		bw.WriteString(strconv.Quote(f.Entity))
	}
	bw.WriteString(`,"observed":`)
	bw.WriteString(telemetry.JSONFloat(f.Observed))
	bw.WriteString(`,"bound":`)
	bw.WriteString(telemetry.JSONFloat(f.Bound))
	bw.WriteString(`,"unit":`)
	bw.WriteString(strconv.Quote(f.Unit))
	if f.Excused {
		bw.WriteString(`,"excused":true,"excuse":`)
		bw.WriteString(strconv.Quote(f.Excuse))
	}
	if len(f.Context) > 0 {
		bw.WriteString(`,"events":[`)
		for i, ev := range f.Context {
			if i > 0 {
				bw.WriteByte(',')
			}
			telemetry.WriteEventJSON(bw, ev)
		}
		bw.WriteByte(']')
	}
	bw.WriteString("}\n")
}
