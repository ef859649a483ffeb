package experiments

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Entry describes one runnable experiment and what the paper (or, for this
// repo's additions, EXPERIMENTS.md) claims about its result.
type Entry struct {
	ID    string
	Title string
	Run   func(Options) *Report
	// Claims are the qualitative statements the experiment exists to show,
	// checked over the report's headline metrics by CheckClaims: in
	// `ufabsim check` (every mode; `-update` refuses to record a golden
	// whose claims fail) and in the package's TestClaims.
	Claims []Claim
}

// Claim is one row of the evaluation's "Shape" column as data: Left Op
// Factor × Right, where Left and Right are each a headline metric name or a
// number. It holds no code, so a claim can be listed, cited by Name from
// EXPERIMENTS.md and sabotaged by a test.
type Claim struct {
	Name   string // "<experiment>.<what-holds>", unique across the registry
	Left   string
	Op     string // one of < <= = >= >
	Factor float64
	Right  string
}

// ops maps each operator to the orderings of left against right — below,
// equal, above — it accepts.
var ops = map[string][3]bool{
	"<": {true, false, false}, "<=": {true, true, false}, "=": {false, true, false},
	">=": {false, true, true}, ">": {false, false, true},
}

// check returns nil when the claim holds over the metrics m and otherwise
// why it does not. A missing or non-finite operand is a failure, never a
// pass: a renamed metric must not read as 0, nor NaN compare as "not above".
func (c Claim) check(m map[string]float64) error {
	l, errL := operand(c.Left, m)
	r, errR := operand(c.Right, m)
	if err := cmp.Or(errL, errR); err != nil {
		return fmt.Errorf("%s: %v", c.Name, err)
	}
	accepts, known := ops[c.Op]
	if !known {
		return fmt.Errorf("%s: unknown operator %q", c.Name, c.Op)
	}
	r *= c.Factor
	if !accepts[cmp.Compare(l, r)+1] {
		return fmt.Errorf("%s: %s = %g is not %s %g × %s = %g", c.Name, c.Left, l, c.Op, c.Factor, c.Right, r)
	}
	return nil
}

// operand resolves a claim operand: a metric of m by name, else a number.
func operand(s string, m map[string]float64) (float64, error) {
	v, ok := m[s]
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(s, 64); err != nil {
			return 0, fmt.Errorf("no metric %q in the report", s)
		}
	}
	if !finite(v) {
		return 0, fmt.Errorf("operand %s is %g", s, v)
	}
	return v, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// CheckClaims evaluates each report against its registry entry's claims and
// returns how many hold and one error, prefixed with the experiment id, per
// claim that does not.
func CheckClaims(reports []*Report) (held int, failed []error) {
	for _, r := range reports {
		e := Find(r.ID)
		if e == nil {
			failed = append(failed, fmt.Errorf("%s: not in the registry, so no claim covers it", r.ID))
			continue
		}
		m := r.Metrics()
		for _, c := range e.Claims {
			if err := c.check(m); err != nil {
				failed = append(failed, fmt.Errorf("%s: claim %v", r.ID, err))
			} else {
				held++
			}
		}
	}
	return held, failed
}

// CheckAudit is the audit gate's predicate over audited reports: no
// unexcused finding, nothing dropped — a finding by a full log, or a
// flight-recorder event by its ring before the auditor saw it — and at least the
// excused findings the run's chaos scenario declares (fewer means the
// injected faults were not observed). It returns one error, prefixed with the
// experiment id, per condition a report fails; a report with no fabric under
// audit passes.
func CheckAudit(reports []*Report) (failed []error) {
	for _, r := range reports {
		f := r.Findings
		if f == nil {
			continue
		}
		if n := f.Unexcused(); n > 0 {
			failed = append(failed, fmt.Errorf("%s: %d unexcused audit finding(s)", r.ID, n))
		}
		if d := f.Dropped(); d > 0 {
			failed = append(failed, fmt.Errorf("%s: audit dropped %d finding(s) or unseen event(s)", r.ID, d))
		}
		if min := f.ExpectExcusedMin; f.Excused() < min {
			failed = append(failed, fmt.Errorf("%s: %d excused finding(s), scenario declares >= %d — injected faults not observed", r.ID, f.Excused(), min))
		}
	}
	return failed
}

// All lists every experiment: the paper's figures and tables in paper
// order, then this repo's additions. Registry order is the order `run all`
// prints in.
var All = []Entry{
	{"fig1", "ECS motivation: bursty interference inflates tail RTT at low average load", fig1, []Claim{
		{"fig1.low-average-load", "load.avg_pct", "<=", 1, "15"},
		{"fig1.bursts-inflate-tail", "rtt.max_tail_inflation", ">=", 1, "2"},
	}},
	{"fig2", "EBS motivation: millisecond bursts inflate tail task completion time", fig2, []Claim{
		{"fig2.moderate-load-floor", "load.pct", ">=", 1, "10"},
		{"fig2.moderate-load-ceiling", "load.pct", "<=", 1, "45"},
		{"fig2.tail-above-mean", "tct.tail_over_mean", ">=", 1, "1.3"},
	}},
	{"fig3", "Hash polarization: load imbalance across equivalent uplinks", fig3, []Claim{
		{"fig3.polarization-concentrates", "ecmp.polarized_used", "<", 1, "ecmp.independent_used"},
		{"fig3.independent-uses-all", "ecmp.independent_used", "=", 1, "24"},
	}},
	{"fig4", "Case-1: incast RTT distribution vs incast degree (PWC vs uFAB)", fig4, []Claim{
		{"fig4.ufab-tail-below-pwc", "ufab.tail_us.10", "<", 1, "pwc.tail_us.10"},
	}},
	{"fig5", "Case-2: utilization-oriented migration breaks bandwidth guarantees", fig5, []Claim{
		{"fig5.ufab-keeps-all", "ufab.satisfied", "=", 1, "4"},
		{"fig5.pwc200-breaks-one", "pwc200.satisfied", "<", 1, "4"},
		{"fig5.pwc36-oscillates", "pwc36.switches", ">=", 10, "ufab.switches"},
	}},
	{"fig11", "Bandwidth guarantee with work conservation under high load", fig11, []Claim{
		{"fig11.ufab-dissat-below-pwc", "ufab.dissat_pct", "<", 1, "pwc.dissat_pct"},
		{"fig11.ufab-dissat-near-zero", "ufab.dissat_pct", "<=", 1, "12"},
		{"fig11.es-deep-queues", "es.maxq_kb", ">=", 5, "ufab.maxq_kb"},
	}},
	{"fig12", "14-to-1 incast: convergence and bounded latency", fig12, []Claim{
		{"fig12.burst-bound-at-work", "ufab.rtt_max_us", "<=", 1, "ufabp.rtt_max_us"},
		{"fig12.ufab-rtt-below-pwc", "ufab.rtt_max_us", "<", 1, "pwc.rtt_max_us"},
	}},
	{"fig13", "Memcached QPS/QCT under MongoDB background traffic", fig13, []Claim{
		{"fig13.ufab-qps-above-pwc", "high.ufab.qps", ">", 1, "high.pwc.qps"},
		{"fig13.ideal-qps-on-top", "high.ideal.qps", ">=", 1, "high.ufab.qps"},
		{"fig13.ideal-tail-below-pwc", "high.ideal.qct_p99_us", "<", 1, "high.pwc.qct_p99_us"},
	}},
	{"fig14", "EBS task completion times under guarantees", fig14, []Claim{
		{"fig14.ufab-isolates-replication", "overload.ufab.ba_p99_ms", "<", 1, "overload.pwc.ba_p99_ms"},
		{"fig14.ufab-within-bound", "paper.ufab.total_p99_ms", "<=", 1, "10"},
	}},
	{"fig15", "100GE predictability under churn and failure; probing overhead", fig15, []Claim{
		{"fig15.guarantees-kept", "guarantee.satisfied", ">=", 1, "6"},
		{"fig15.victims-migrate", "faults.migrations", ">", 1, "0"},
		{"fig15.overhead-bounded-1", "probe.overhead_pct.1", "<=", 1.5, "probe.overhead_bound_pct"},
		{"fig15.overhead-bounded-10", "probe.overhead_pct.10", "<=", 1.5, "probe.overhead_bound_pct"},
		{"fig15.overhead-bounded-100", "probe.overhead_pct.100", "<=", 1.5, "probe.overhead_bound_pct"},
	}},
	{"fig16", "90-to-1 highly dynamic workload", fig16, []Claim{
		{"fig16.ufab-rtt-below-pwc", "ufab.rtt_max_us", "<", 1, "pwc.rtt_max_us"},
		{"fig16.ufab-utilizes", "ufab.unlimited_gbps", ">=", 1, "40"},
		{"fig16.pwc-utilizes", "pwc.unlimited_gbps", ">=", 1, "40"},
		{"fig16.es-utilizes", "es.unlimited_gbps", ">=", 1, "40"},
	}},
	{"fig17", "Real workload on the large fabric (oversubscription x load sweep)", fig17, []Claim{
		{"fig17.ufab-slowdown-below-pwc", "ufab.slow_p99.1_2_load_0_7", "<", 1, "pwc.slow_p99.1_2_load_0_7"},
		{"fig17.ufab-slowdown-below-es", "ufab.slow_p99.1_2_load_0_7", "<", 1, "es.slow_p99.1_2_load_0_7"},
	}},
	{"fig18", "Sensitivity: migration freeze window and probing frequency", fig18, []Claim{
		{"fig18.freeze10-converges", "freeze10.70%.conv_ms", ">=", 1, "0"},
		{"fig18.self-clocking-converges", "probe.self-clocking.conv_us", ">=", 1, "0"},
	}},
	{"fig19", "Control-law reaction: primal (2 RTT) vs dual (4 RTT)", fig19, []Claim{
		{"fig19.incumbent-reacts", "reaction.rtts", ">=", 1, "0"},
		{"fig19.within-a-few-rtts", "reaction.rtts", "<=", 1, "8"},
	}},
	{"fig20", "Heterogeneous response delays: 128-to-1 convergence", fig20, []Claim{
		{"fig20.converges", "conv.us", ">=", 1, "0"},
		{"fig20.responses-asynchronous", "rtt.spread_us", ">", 1, "0"},
	}},
	{"tab3", "uFAB-E FPGA resource consumption model", table3, []Claim{
		{"tab3.bram-floor", "fpga.total_bram_pct", ">=", 1, "10"},
		{"tab3.bram-ceiling", "fpga.total_bram_pct", "<=", 1, "25"},
	}},
	{"tab4", "uFAB-C switch resource consumption model", table4, []Claim{
		{"tab4.sram-grows-20k-40k", "switch.sram_pct.20k", "<", 1, "switch.sram_pct.40k"},
		{"tab4.sram-grows-40k-80k", "switch.sram_pct.40k", "<", 1, "switch.sram_pct.80k"},
	}},
	{"shardsim", "sharded parallel-in-time core: cross-pod workload identity", shardSim, []Claim{
		{"shardsim.messages-complete", "shardsim.completed", ">", 1, "0"},
		{"shardsim.no-drops", "shardsim.drops", "=", 1, "0"},
	}},
	{"abl", "ablations: two-stage admission, GP, migration, probing payload", ablations, []Claim{
		{"abl.two-stage-cuts-tail", "full.rtt_max_us", "<", 1, "nostage.rtt_max_us"},
		{"abl.gp-reclaims-tokens", "gp.rate_gbps", ">=", 1.3, "static.rate_gbps"},
		{"abl.migration-rescues-worst", "migration.worst_gbps", ">", 1, "pinned.worst_gbps"},
		{"abl.overhead-falls-with-lw", "lw1024.overhead_pct", ">", 1, "lw16384.overhead_pct"},
	}},
	{"flap", "fault suite: link-flap incast on the testbed", faultFlap, []Claim{
		{"flap.guarantees-survive", "guarantee.satisfied", ">=", 1, "3"},
		{"flap.victims-migrate", "faults.migrations", ">", 1, "0"},
		{"flap.flaps-applied", "chaos.flaps_applied", ">", 1, "0"},
		{"flap.control-tenant-untouched", "ctrl.gbps", ">=", 1, "5"},
	}},
	{"gray", "fault suite: gray core link (capacity loss, latency, probe corruption)", faultGray, []Claim{
		{"gray.degrade-applied", "chaos.degrades_applied", "=", 1, "1"},
		{"gray.lossy-link-drops", "faults.drops", ">", 1, "0"},
		{"gray.corruption-filtered", "faults.corrupted_probes", ">", 1, "0"},
		{"gray.control-tenant-untouched", "ctrl.gbps", ">=", 1, "5"},
	}},
	{"restart", "fault suite: uFAB-C agent restart and register rebuild", faultRestart, []Claim{
		{"restart.four-restarts", "faults.core_restarts", "=", 1, "4"},
		{"restart.phi-registered", "phi.before", ">", 1, "0"},
		{"restart.phi-wiped", "phi.after_wipe", "=", 1, "0"},
		{"restart.phi-rebuilt", "phi.rebuilt", ">", 1, "0"},
		{"restart.phi-not-double-counted", "phi.rebuilt", "<=", 1, "phi.before"},
		{"restart.guarantees-survive", "guarantee.satisfied", ">=", 1, "3"},
	}},
	{"churn", "fault suite: tenant churn storm against a stable guarantee", faultChurn, []Claim{
		{"churn.tenants-arrive", "chaos.arrivals", ">", 1, "0"},
		{"churn.all-depart", "chaos.arrivals", "=", 1, "chaos.departures"},
		{"churn.invalid-events-rejected", "chaos.rejected", "=", 1, "2"},
		{"churn.guarantees-survive", "guarantee.satisfied", ">=", 1, "3"},
		{"churn.no-phi-leak", "phi.residue", "<=", 1, "81"},
	}},
	{"chaoslab", "fault suite: scripted scenario playground (-scenario flag)", chaosLab, []Claim{
		{"chaoslab.every-kind-applied", "chaos.events_applied", ">=", 1, "9"},
		{"chaoslab.control-tenant-untouched", "ctrl.gbps", ">=", 1, "5"},
	}},
	{"fuzzlab", "scenario fuzzer: seeded generated cases under the auditor oracle", fuzzLab, []Claim{
		{"fuzzlab.no-findings", "fuzz.findings", "=", 1, "0"},
		{"fuzzlab.no-panics", "fuzz.panics", "=", 1, "0"},
		{"fuzzlab.deterministic", "fuzz.mismatches", "=", 1, "0"},
	}},
	{"placecmp", "control plane: placement-policy comparison under open-loop churn (3-tier Clos)", placeCompare, []Claim{
		{"placecmp.subscription-aware-admits-most", "subscription-aware.accept_ratio", ">", 1, "first-fit.accept_ratio"},
		{"placecmp.spread-admits-fewest", "spread.accept_ratio", "<", 1, "first-fit.accept_ratio"},
	}},
	{"placechurn", "control plane: admission-checked churn materialized on the testbed fabric", placeChurn, []Claim{
		{"placechurn.oversized-hose-bounces", "chaos.admission_rejects", "=", 1, "1"},
		{"placechurn.ledger-verifies", "ledger.ok", "=", 1, "1"},
		{"placechurn.standing-above-floor", "standing.vf1_gbps", ">=", 1, "2"},
	}},
	{"placesweep", "control plane: oversubscription-factor sweep (accept ratio vs committed risk)", placeSweep, []Claim{
		{"placesweep.yield-grows-with-factor", "oversub.300.accept_ratio", ">", 1, "oversub.100.accept_ratio"},
		{"placesweep.commitment-within-factor", "oversub.300.peak_subscription", "<=", 1, "3"},
	}},
	{"reconcile", "control plane: watcher/reconciler convergence under node crash and drain", reconcile, []Claim{
		{"reconcile.all-replaced", "ctl.replacements", "=", 1, "ctl.displaced"},
		{"reconcile.no-evictions", "ctl.evictions", "=", 1, "0"},
		{"reconcile.all-placed-at-end", "ctl.placed_at_end", "=", 1, "4"},
	}},
}

// Find returns the entry with the given id, or nil.
func Find(id string) *Entry {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}
