package fuzz

import (
	"fmt"
	"runtime/debug"
	"strings"

	"ufab/internal/audit"
	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/vfabric"
	"ufab/internal/workload"
)

// Verdict classifies one executed case.
type Verdict string

const (
	// VerdictClean: no findings at all.
	VerdictClean Verdict = "clean"
	// VerdictExcused: findings occurred, all inside chaos-excused windows.
	VerdictExcused Verdict = "excused"
	// VerdictFinding: at least one unexcused finding — the oracle fired.
	VerdictFinding Verdict = "finding"
	// VerdictPanic: the simulation panicked (recovered by the executor).
	VerdictPanic Verdict = "panic"
	// VerdictMismatch: a replay of the same case diverged — the
	// determinism contract broke, across repetitions or across worker
	// counts.
	VerdictMismatch Verdict = "mismatch"
)

// Failed reports whether the verdict fails a fuzz run.
func (v Verdict) Failed() bool {
	return v == VerdictFinding || v == VerdictPanic || v == VerdictMismatch
}

// Result is the executor's classification of one case.
type Result struct {
	Verdict   Verdict `json:"verdict"`
	Excused   int     `json:"excused"`
	Unexcused int     `json:"unexcused"`
	// Kinds are the distinct unexcused finding kinds, sorted.
	Kinds []string `json:"kinds,omitempty"`
	// Panic carries the recovered panic value and stack.
	Panic string `json:"panic,omitempty"`
	// Mismatch describes a replay divergence.
	Mismatch string `json:"mismatch,omitempty"`
	// Admitted/Rejected are the admission controller's lifetime counters
	// (standing tenants + churn + chaos arrivals).
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// FindingsJSONL is the findings log, for display and artifacts.
	FindingsJSONL string `json:"-"`
}

// Executor runs cases. The zero value is usable; Replay doubles the cost
// of every case to buy determinism checking.
type Executor struct {
	// Replay runs each case twice — shards inline, then on replayWorkers
	// goroutines — and compares the runs' digests (findings JSONL,
	// per-flow delivery, admission counters, injection log); any
	// divergence is a VerdictMismatch. One comparison checks both that a
	// case replays and that the worker count cannot change a byte.
	Replay bool
	// Sabotage is a test-only hook invoked after the fabric and standing
	// tenants are assembled, before the run starts. Tests use it to break
	// an invariant deliberately (e.g. pin a pair's Φ) and prove the
	// oracle catches it. It runs in every replay.
	Sabotage func(eng *sim.Engine, f *vfabric.Fabric)
}

// replayWorkers is the worker count of Replay's second execution.
const replayWorkers = 4

// Run executes the case (twice under Replay) and classifies the outcome.
// An error means the case itself is malformed; a panic inside the
// simulation is a verdict, not an error.
func (x *Executor) Run(c *Case) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	first := x.execOnce(c, 0)
	res := &Result{
		Excused:       first.excused,
		Unexcused:     first.unexcused,
		Kinds:         first.kinds,
		Admitted:      first.admitted,
		Rejected:      first.rejected,
		FindingsJSONL: first.findings,
	}
	if first.panicked != "" {
		res.Verdict = VerdictPanic
		res.Panic = first.panicked
		return res, nil
	}
	if x.Replay {
		second := x.execOnce(c, replayWorkers)
		if second.panicked != "" {
			res.Verdict = VerdictPanic
			res.Panic = "replay only: " + second.panicked
			return res, nil
		}
		if second.digest != first.digest {
			res.Verdict = VerdictMismatch
			res.Mismatch = diffDigests(first.digest, second.digest)
			return res, nil
		}
	}
	switch {
	case first.unexcused > 0:
		res.Verdict = VerdictFinding
	case first.excused > 0:
		res.Verdict = VerdictExcused
	default:
		res.Verdict = VerdictClean
	}
	return res, nil
}

// runOut is one execution's raw outcome.
type runOut struct {
	digest             string
	findings           string
	excused, unexcused int
	kinds              []string
	admitted, rejected int64
	panicked           string
}

// execOnce assembles the case's fabric and control plane from scratch,
// runs it to the horizon on the given number of workers, and digests
// everything a deterministic run must reproduce. Panics are recovered into
// the outcome.
func (x *Executor) execOnce(c *Case, workers int) (out runOut) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = fmt.Sprintf("%v\n%s", r, debug.Stack())
		}
	}()
	g, err := c.Topology.Build()
	if err != nil {
		// Validate already vetted the topology; a failure here is a bug.
		panic(err)
	}
	eng := sim.New()
	reg := telemetry.New()
	reg.EnableRecorder(0)
	log := &audit.Log{}
	sample := c.SamplePS
	if sample <= 0 {
		sample = 250 * sim.Microsecond
	}
	// Fuzz cases perturb the fabric continuously (churn arrivals, neighbor
	// migrations), so a violation only counts once it outlives the 3 ms
	// convergence budget the auditor's warmup already grants — shorter
	// dips are the system reconverging, not a bug.
	hold := int((3*sim.Millisecond + sample - 1) / sample)
	cfg := vfabric.Config{Seed: c.Seed, Telemetry: reg,
		Audit: &audit.Config{Log: log, HoldTicks: hold}}
	cfg.Core.CleanupPeriod = c.HorizonPS / 8
	// Built through the shared construction path so fuzzing exercises the
	// same partitioned dataplane the experiments and daemon run on.
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: g, Cfg: cfg, Eng: eng, Shards: workers})
	if err != nil {
		panic(err)
	}
	f.StartCoreCleanup()
	ctl := placement.NewController(eng, g, f, placement.Config{
		Policy:       placement.Spread{},
		SlotsPerHost: 16,
		Telemetry:    reg,
	})
	// Checked-admit mode: the ledger_bound invariant holds realized Φ
	// against the control plane's commitments for every tenant source.
	f.Cfg.Ledger = ctl.Ledger()

	rejectedStanding := 0
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if f.ValidateTenantSpec(t.spec()) != nil || !ctl.AdmitSpec(t.spec()) {
			rejectedStanding++
			continue
		}
		materializeTenant(eng, f, c, t)
	}
	var churn *placement.ChurnStats
	if c.Churn != nil && c.Churn.Arrivals > 0 {
		cc := *c.Churn
		if cc.Seed == 0 {
			cc.Seed = c.Seed
		}
		churn = placement.Churn(ctl, cc)
	}
	var inj *chaos.Injector
	if c.Chaos != nil && len(c.Chaos.Events) > 0 {
		inj = f.ApplyScenario(c.Chaos).WithAdmission(ctl)
	}
	if x.Sabotage != nil {
		x.Sabotage(eng, f)
	}

	stop := f.StartSampling(sample)
	eng.RunUntil(c.HorizonPS)
	stop()
	f.SampleRates()

	var fb strings.Builder
	if err := log.WriteJSONL(&fb); err != nil {
		panic(err)
	}
	out.findings = fb.String()
	out.excused = log.Excused()
	out.unexcused = log.Unexcused()
	out.kinds = log.UnexcusedKinds()
	st := ctl.Stats()
	out.admitted = st.Admitted
	out.rejected = st.Rejected
	out.digest = digest(c, f, out.findings, st, churn, inj, rejectedStanding)
	return out
}

// materializeTenant builds the admitted tenant's VF, pairs and workload
// drivers. Workload randomness (Poisson draws) comes from a per-pair RNG
// seeded off the case, so replays are identical.
func materializeTenant(eng *sim.Engine, f *vfabric.Fabric, c *Case, t *Tenant) {
	vf := f.AddVF(t.VF, t.GuaranteeBps, t.WeightClass)
	for pi, pr := range t.Pairs {
		switch t.Workload.Kind {
		case "", workloadBacklog:
			fl := f.AddFlow(vf, pr.Src, pr.Dst, 0)
			backlog := pr.BacklogBytes
			if backlog <= 0 {
				backlog = 1 << 42
			}
			fl.Buffer.Add(backlog)
		case workloadFixedRate:
			fl := f.AddFlow(vf, pr.Src, pr.Dst, 0)
			workload.FixedRate(eng, fl.Buffer, t.Workload.RateBps, 0)
		case workloadOnOff:
			fl := f.AddFlow(vf, pr.Src, pr.Dst, 0)
			period := t.Workload.PeriodPS
			if period <= 0 {
				period = 2 * sim.Millisecond
			}
			chunk := int64(2 * t.GuaranteeBps * period.Seconds() / 8)
			if chunk < 1<<16 {
				chunk = 1 << 16
			}
			workload.OnOff(eng, fl.Buffer, t.Workload.RateBps, period, chunk)
		case workloadPoisson:
			msgs := &workload.Messages{}
			f.AddFlowDemand(vf, pr.Src, pr.Dst, 0, msgs)
			dist := workload.KeyValue()
			if t.Workload.Dist == "websearch" {
				dist = workload.WebSearch()
			}
			rng := stats.NewRand(c.Seed ^ int64(t.VF)<<20 ^ int64(pi)<<8 ^ 0x706f69)
			workload.Poisson(eng, rng, dist, t.Workload.RateBps, func(size int64, now sim.Time) {
				msgs.Send(size, now)
			})
		}
	}
}

// digest renders everything two replays of the same case must agree on.
func digest(c *Case, f *vfabric.Fabric, findings string, st placement.Stats,
	churn *placement.ChurnStats, inj *chaos.Injector, rejectedStanding int) string {
	var b strings.Builder
	b.WriteString(findings)
	fmt.Fprintf(&b, "ctl submitted=%d admitted=%d rejected=%d released=%d active=%d standing_rejected=%d\n",
		st.Submitted, st.Admitted, st.Rejected, st.Released, st.Active, rejectedStanding)
	if churn != nil {
		fmt.Fprintf(&b, "churn submitted=%d accepted=%d rejected=%d\n",
			churn.Submitted, churn.Accepted, churn.Rejected)
	}
	if inj != nil {
		for _, rec := range inj.Log {
			fmt.Fprintf(&b, "chaos %s\n", rec)
		}
	}
	for i, fl := range f.Flows {
		fmt.Fprintf(&b, "flow %d vf=%d rate=%.0f\n", i, fl.VF.ID, fl.Rate(0, sim.Time(c.HorizonPS)))
	}
	return b.String()
}

// diffDigests points at the first line where two run digests diverge.
func diffDigests(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("digest line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("digest lengths differ: %d vs %d lines", len(al), len(bl))
}
