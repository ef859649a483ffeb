// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from an Options struct to
// a Report; the cmd/ufabsim CLI, the root bench harness and EXPERIMENTS.md
// are all generated from the same functions.
//
// Absolute numbers differ from the paper (the substrate is a discrete-event
// simulator, not the authors' testbed), but each Report records the
// quantities whose *shape* the paper's claims rest on: who keeps its
// guarantee, whose tail latency is bounded, where the crossovers fall.
//
// The registry (registry.go) lists every experiment with the claims its
// result must satisfy, as data; `ufabsim check` and TestClaims evaluate them
// (DESIGN.md "One evaluation matrix").
//
// Every experiment holds its fabric through one deployment handle, built by
// deploy or deployPlain — the only code that knows whether μFAB or a
// baseline runs underneath (DESIGN.md "One deployment under every scheme").
// Figures stay code rather than data because an event's key ends in the
// order the figure called into the fabric: the same calls in the same order
// is what keeps golden_metrics.json byte-identical.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ufab/internal/audit"
	"ufab/internal/dataplane"
	"ufab/internal/flowsrc"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
	"ufab/internal/workload"

	blhost "ufab/internal/baseline/host"
)

// Options tunes an experiment run. The JSON tags pin the encoding used by
// the golden_metrics.json regression baseline.
type Options struct {
	// Quick runs a scaled-down version (shorter horizon, smaller
	// fan-in) suitable for go test -bench.
	Quick bool `json:"quick"`
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64 `json:"seed"`
	// Scenario, when non-empty, is a chaos scenario as JSON (see
	// internal/chaos). Only the chaoslab experiment consumes it; the
	// regression baseline is recorded with it empty, so the field is
	// omitted from golden_metrics.json.
	Scenario string `json:"scenario,omitempty"`
	// Telemetry attaches the run's unified registry to the fabric under
	// test: per-link instruments, agent counters, and the flight
	// recorder. Headline metrics and golden comparison are unaffected —
	// instrumentation never feeds back into the simulation — so results
	// are bit-identical with it on or off. Excluded from the golden
	// encoding.
	Telemetry bool `json:"-"`
	// Audit additionally runs the online predictability auditor over the
	// fabric under test (implies Telemetry for that fabric): every
	// sampling tick is checked against the min-bandwidth, work
	// conservation, queue-bound and register-accounting invariants, with
	// findings collected in Report.Findings. Like Telemetry, the auditor
	// is a pure observer — headline metrics and golden comparison are
	// unaffected. Excluded from the golden encoding.
	Audit bool `json:"-"`
	// Shards is the number of worker goroutines executing each μFAB
	// fabric's pod shards: 0 runs them inline on the run's own goroutine,
	// N >= 1 on N workers in parallel. Results are bit-identical for every
	// value — metrics, snapshots and traces — which `check -shards N` and
	// the shard-identity tests enforce. The baseline already records with
	// it zero, so the field is omitted from golden_metrics.json.
	Shards int `json:"shards,omitempty"`
}

// fabricTelemetry returns the registry a fabric under test should attach
// (the report's own registry, flight recorder enabled), or nil when o
// does not ask for telemetry.
func (o Options) fabricTelemetry(r *Report) *telemetry.Registry {
	if !o.Telemetry && !o.Audit {
		return nil
	}
	r.Reg.EnableRecorder(0)
	return r.Reg
}

// fabricAudit returns the auditor configuration a fabric under test
// should attach, or nil when o does not ask for auditing. All audited
// fabrics of one run share the report's findings log. Experiments whose
// point is a deliberately crippled variant (pinned paths, disabled token
// loop) must not pass the result to that variant — the auditor would
// correctly flag the sabotage.
func (o Options) fabricAudit(r *Report) *audit.Config {
	if !o.Audit {
		return nil
	}
	if r.Findings == nil {
		r.Findings = &audit.Log{}
	}
	return &audit.Config{Log: r.Findings}
}

// Report is an experiment's structured result, built on the unified
// telemetry registry: headline metrics are gauges, attached curves are
// ring-buffer series, all under the dotted entity.instance.metric naming
// scheme. When the run's fabric is instrumented (Options.Telemetry), its
// per-link/per-agent instruments live in the same registry and come out
// of the same Snapshot; golden comparison still only sees the headline
// metrics recorded through metric.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Reg is the run's unified telemetry registry.
	Reg *telemetry.Registry
	// Findings is the predictability auditor's output when the run was
	// audited (Options.Audit); nil otherwise. Deliberately not a headline
	// metric: golden comparison must stay identical with auditing on or
	// off.
	Findings *audit.Log

	order       []string // headline metric names, insertion order
	seriesNames []string // attached series names, insertion order
}

// newReport creates an empty report with a fresh registry.
func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Reg: telemetry.New()}
}

// Printf appends a formatted line.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// seriesKey maps an attached curve's display name to its registry name.
func seriesKey(name string) string { return "series." + telemetry.Token(name) }

// addSeries attaches a named curve to the report, copying its points into
// a registry series.
func (r *Report) addSeries(name string, s *stats.Series) {
	ts := r.Reg.Series(seriesKey(name), len(s.Pts))
	for _, pt := range s.Pts {
		ts.Add(int64(pt.T), pt.V)
	}
	r.seriesNames = append(r.seriesNames, name)
}

// SeriesCount returns how many curves are attached.
func (r *Report) SeriesCount() int { return len(r.seriesNames) }

// WriteCSV writes every attached series as CSV (time_us,value) files named
// <id>_<series>.csv under dir.
func (r *Report) WriteCSV(dir string) error {
	snap := r.Reg.Snapshot()
	points := make(map[string][]telemetry.Point, len(snap.Series))
	for _, sv := range snap.Series {
		points[sv.Name] = sv.Points
	}
	for _, name := range r.seriesNames {
		file := r.ID + "_" + sanitize(name) + ".csv"
		var b strings.Builder
		b.WriteString("time_us,value\n")
		for _, pt := range points[seriesKey(name)] {
			fmt.Fprintf(&b, "%.3f,%g\n", sim.Time(pt.T).Micros(), pt.V)
		}
		if err := os.WriteFile(filepath.Join(dir, file), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// metric records a headline number under a dotted name (the registry
// panics on undotted names). Re-recording a name overwrites its value but
// keeps its original position.
func (r *Report) metric(name string, v float64) {
	g := r.Reg.Gauge(name) // validates the name even for duplicates
	for _, k := range r.order {
		if k == name {
			g.Set(v)
			return
		}
	}
	r.order = append(r.order, name)
	g.Set(v)
}

// Metrics returns the headline metrics as a name → value map. Fabric
// instruments sharing the registry are excluded: only names recorded
// through metric appear, which keeps golden comparison identical whether
// telemetry is on or off.
func (r *Report) Metrics() map[string]float64 {
	out := make(map[string]float64, len(r.order))
	for _, k := range r.order {
		out[k] = r.Reg.GaugeValue(k)
	}
	return out
}

// MetricNames returns metric keys in insertion order.
func (r *Report) MetricNames() []string { return r.order }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(r.order) > 0 {
		b.WriteString("-- metrics --\n")
		for _, k := range r.order {
			fmt.Fprintf(&b, "%s = %.4g\n", k, r.Reg.GaugeValue(k))
		}
	}
	return b.String()
}

// ---- one deployment under every scheme ---------------------------------------

// scheme identifies the system under test in comparative experiments.
type scheme int

const (
	schemeUFAB scheme = iota
	schemeUFABPrime
	schemePWC
	schemeES
	// schemePWCGap36 is PWC with Clove's flowlet gap cut from 200 to 36 μs,
	// the oscillating alternative of Fig 5.
	schemePWCGap36
)

func (s scheme) String() string {
	switch s {
	case schemeUFAB:
		return "uFAB"
	case schemeUFABPrime:
		return "uFAB'"
	case schemePWC:
		return "PicNIC'+WCC+Clove"
	case schemeES:
		return "ES+Clove"
	case schemePWCGap36:
		return "PicNIC'+WCC+Clove (36us gap)"
	}
	return "?"
}

// deployment is the one handle an experiment holds on the fabric under
// test, whichever scheme runs on it. newDeployment is the only code that
// knows the scheme: it assembles the fabric and binds the operations that
// differ; everything else is written once against the parts both fabrics
// share — the engine, the dataplane network, a demand buffer, a rate meter,
// RTT samples. It is also the apps.Net the application models run over.
type deployment struct {
	// eng drives the deployment's simulation and doubles as the
	// coordinator scheduling context: experiment timelines (workload
	// feeders, chaos, samplers) scheduled here run at global barriers with
	// exclusive access to fabric state for every worker count.
	eng *sim.Engine
	net *dataplane.Network
	// uf is the μFAB fabric, nil under a baseline: the μFAB-only experiments
	// reach chaos, the core registers and the probe counters through it.
	uf *vfabric.Fabric

	// add creates a VM-pair of VF vf draining demand, over routes or, when
	// routes is nil, over candidates the fabric samples from src to dst. A
	// VF not yet registered gets hose hoseBps; phi is the pair's tokens, 0
	// for the whole hose.
	add func(vf int32, hoseBps, phi float64, src, dst topo.NodeID, routes []topo.Path, demand flowsrc.Source) *flow
	// sampleRates flushes every flow's rate meter up to now (and, under
	// μFAB, publishes telemetry and ticks the auditor).
	sampleRates func()

	// reg is the attached registry (nil when telemetry is off). fctVFs and
	// fctPair track the per-pair FCT histograms created by addMessageFlow
	// so mergeTenantFCT can aggregate them per tenant after the run. Both
	// are written only at setup time (coordinator context).
	reg     *telemetry.Registry
	fctVFs  []int32
	fctPair map[int32][]*telemetry.Histogram
	// conns memoises Dial.
	conns map[connKey]*workload.Messages
}

type connKey struct {
	vf       int32
	src, dst topo.NodeID
}

// flow is one VM-pair under test: its demand and what the run measures of
// it, the same fields whichever fabric carries it.
type flow struct {
	// buf is the demand buffer; nil for a message-tracked flow.
	buf *flowsrc.Buffer
	// meter is the acknowledged throughput, filled by sampleRates.
	meter *stats.RateMeter
	rtt   *stats.Samples
	// delivered is the live count of acknowledged bytes.
	delivered *int64
	// switches counts the pair's path changes: μFAB-E migrations, Clove
	// flowlet repicks.
	switches func() int
}

// backlog fills the flow with effectively infinite demand.
func (f *flow) backlog() { f.buf.Add(1 << 42) }

// rate returns acknowledged throughput in bits/s averaged over [from, to].
func (f *flow) rate(from, to sim.Time) float64 { return f.meter.Series.MeanOver(from, to) }

// deploy assembles scheme sc over g on its own engine, attaching the run's
// telemetry and, for the μFAB schemes, its auditor (the baselines make no
// guarantees to audit). μFAB runs as vfabric.Build assembles it, on the
// pod-partitioned engine with o.Shards workers; the baselines have no
// shards for workers to execute and run on a plain engine.
func deploy(sc scheme, o Options, r *Report, g *topo.Graph) *deployment {
	return newDeployment(sc, o, r, g, true, nil)
}

// deployPlain is deploy with μFAB on an unpartitioned engine (vfabric.New)
// and an optional tweak of its configuration. Every caller is a golden
// re-record candidate, not a refactoring one: moving a figure to deploy
// re-stamps the (src, seq) half of its event keys and with them its
// tie-breaks (ROADMAP "The evaluation as data").
func deployPlain(sc scheme, o Options, r *Report, g *topo.Graph, tweak func(*vfabric.Config)) *deployment {
	return newDeployment(sc, o, r, g, false, tweak)
}

func newDeployment(sc scheme, o Options, r *Report, g *topo.Graph, partitioned bool, tweak func(*vfabric.Config)) *deployment {
	d := &deployment{eng: sim.New(), reg: o.fabricTelemetry(r),
		fctPair: make(map[int32][]*telemetry.Histogram), conns: make(map[connKey]*workload.Messages)}
	if sc == schemeUFAB || sc == schemeUFABPrime {
		cfg := vfabric.Config{Seed: o.Seed, Telemetry: o.fabricTelemetry(r), Audit: o.fabricAudit(r)}
		cfg.Edge.DisableTwoStage = sc == schemeUFABPrime
		if tweak != nil {
			tweak(&cfg)
		}
		var uf *vfabric.Fabric
		if partitioned {
			var err error
			if uf, err = vfabric.Build(vfabric.BuildOptions{Graph: g, Cfg: cfg, Shards: o.Shards, Eng: d.eng}); err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
		} else {
			uf = vfabric.New(d.eng, g, cfg)
		}
		d.uf, d.net, d.sampleRates = uf, uf.Net, uf.SampleRates
		d.add = func(vf int32, hoseBps, phi float64, src, dst topo.NodeID, routes []topo.Path, demand flowsrc.Source) *flow {
			v := uf.VFs[vf]
			if v == nil {
				v = uf.AddVF(vf, hoseBps, weightClass(hoseBps))
			}
			var fl *vfabric.Flow
			if routes == nil {
				fl = uf.AddFlowDemand(v, src, dst, phi, demand)
			} else {
				fl = uf.AddFlowRoutes(v, routes, phi, demand)
			}
			fl.Pair.RTT = &stats.Samples{}
			return &flow{meter: fl.Meter, rtt: fl.Pair.RTT, delivered: &fl.Pair.Delivered,
				switches: func() int { return fl.Pair.Migrations }}
		}
		return d
	}
	cfg := blhost.Config{Scheme: blhost.PWC, Seed: o.Seed}
	switch sc {
	case schemeES:
		cfg.Scheme = blhost.ESClove
	case schemePWCGap36:
		cfg.CloveGap = 36 * sim.Microsecond
	}
	bl := blhost.NewFabric(d.eng, g, cfg, dataplane.Config{Telemetry: d.reg})
	d.net, d.sampleRates = bl.Net, bl.SampleRates
	d.add = func(vf int32, hoseBps, phi float64, src, dst topo.NodeID, routes []topo.Path, demand flowsrc.Source) *flow {
		// The baselines carry the weight per flow: the pair's tokens, or
		// the hose's at BU = 100 Mbps.
		if phi == 0 {
			phi = hoseBps / 100e6
		}
		var fh *blhost.FlowHandle
		if routes == nil {
			fh = bl.AddFlowDemand(vf, phi, src, dst, 4, demand)
		} else {
			fh = bl.AddFlowRoutes(vf, phi, routes, demand)
		}
		fh.Flow.RTT = &stats.Samples{}
		return &flow{meter: fh.Meter, rtt: fh.Flow.RTT, delivered: &fh.Flow.Delivered, switches: fh.Flow.Repicks}
	}
	return d
}

// hostScheduler returns the scheduling context owning a host: per-host
// workload drivers (as opposed to coordinator-paced feeders) must
// schedule there so their traffic runs inside the host's shard, beside
// the other shards when there are workers. An unpartitioned deployment is
// one context, so it is the engine.
func (d *deployment) hostScheduler(host topo.NodeID) sim.Scheduler {
	return d.net.NodeScheduler(host)
}

// addFlow creates a VM-pair of the VF holding the whole guarantee, fed
// from the returned flow's buffer.
func (d *deployment) addFlow(vf int32, guaranteeBps float64, src, dst topo.NodeID) *flow {
	buf := &flowsrc.Buffer{}
	f := d.add(vf, guaranteeBps, 0, src, dst, nil, buf)
	f.buf = buf
	return f
}

// addFlowRoutes is addFlow over an explicit candidate-path set (Fig 5 pins
// flows to underlay paths).
func (d *deployment) addFlowRoutes(vf int32, guaranteeBps float64, routes []topo.Path) *flow {
	buf := &flowsrc.Buffer{}
	f := d.add(vf, guaranteeBps, 0, d.net.G.PathSrc(routes[0]), d.net.G.PathDst(routes[0]), routes, buf)
	f.buf = buf
	return f
}

// incast backlogs one flow per sender towards dst: VF i+1 from senders[i],
// each with the given guarantee.
func (d *deployment) incast(senders []topo.NodeID, dst topo.NodeID, guaranteeBps float64) []*flow {
	flows := make([]*flow, len(senders))
	for i, src := range senders {
		flows[i] = d.addFlow(int32(i+1), guaranteeBps, src, dst)
		flows[i].backlog()
	}
	return flows
}

// weightClass maps a guarantee to one of the 8 WFQ classes.
func weightClass(guaranteeBps float64) int {
	c := 0
	for g := 1e9; g < guaranteeBps && c < 7; g *= 2 {
		c++
	}
	return c
}

// startSampling arranges for sampleRates to run every interval.
func (d *deployment) startSampling(interval sim.Duration) (stop func()) {
	return d.eng.Every(interval, d.sampleRates)
}

// queueHighWaters gathers the high-water marks of all switch egress
// queues as a sorted-once snapshot (quantiles come off it without
// re-sorting per call).
func (d *deployment) queueHighWaters() stats.Snapshot {
	var s stats.Samples
	for _, q := range d.net.SwitchQueueHighWaters() {
		s.Add(float64(q))
	}
	return s.Snapshot()
}

// addMessageFlow creates a message-tracked VM-pair: sizes sent on the
// returned tracker complete when the fabric has delivered them.
func (d *deployment) addMessageFlow(vf int32, guaranteeBps float64, src, dst topo.NodeID) (*workload.Messages, *flow) {
	msgs := &workload.Messages{}
	if d.reg != nil {
		// Per-pair FCT histogram: completions fire in the source host's
		// shard, so each histogram keeps the single-writer discipline.
		// mergeTenantFCT folds them into per-tenant distributions after
		// the run.
		ent := fmt.Sprintf("workload.vf%d-%s-%s", vf,
			telemetry.Token(d.net.G.Node(src).Name), telemetry.Token(d.net.G.Node(dst).Name))
		h := d.reg.Histogram(ent + ".fct_us")
		d.fctPair[vf] = append(d.fctPair[vf], h)
		if len(d.fctPair[vf]) == 1 {
			d.fctVFs = append(d.fctVFs, vf)
		}
		msgs.Observe(func(_ workload.Message, fct sim.Duration) { h.Observe(fct.Micros()) })
	}
	return msgs, d.add(vf, guaranteeBps, 0, src, dst, nil, msgs)
}

// mergeTenantFCT folds each tenant's per-pair FCT histograms into one
// "workload.vf<id>.fct_us" distribution — the shared global bucket layout
// makes the merge exact. Call at the coordinator after the horizon; merge
// order follows creation order, so the merged histograms are byte-identical
// across -jobs and -shards.
func (d *deployment) mergeTenantFCT() {
	if d.reg == nil {
		return
	}
	for _, vf := range d.fctVFs {
		merged := d.reg.Histogram(fmt.Sprintf("workload.vf%d.fct_us", vf))
		for _, h := range d.fctPair[vf] {
			merged.Merge(h)
		}
	}
}

// Engine implements apps.Net.
func (d *deployment) Engine() sim.Scheduler { return d.eng }

// Dial implements apps.Net: one message channel per (VF, src, dst), created
// on first use with the given tokens. Under μFAB a VF's hose defaults to its
// first pair's guarantee; experiments that need a different hose
// pre-register the VF.
func (d *deployment) Dial(vf int32, tokens float64, src, dst topo.NodeID) *workload.Messages {
	key := connKey{vf, src, dst}
	if d.conns[key] == nil {
		d.conns[key] = &workload.Messages{}
		d.add(vf, tokens*100e6, tokens, src, dst, nil, d.conns[key])
	}
	return d.conns[key]
}

// aggMeter samples the aggregate delivered rate of a flow set.
func aggMeter(eng sim.Scheduler, flows []*flow, interval sim.Duration) *stats.RateMeter {
	m := stats.NewRateMeter("agg", interval)
	eng.Every(interval, func() {
		var d int64
		for _, f := range flows {
			d += *f.delivered
		}
		m.AddTotal(eng.Now(), d)
	})
	return m
}

// poolRTT pools the flows' RTT distributions into one by resampling each
// at the given quantiles.
func poolRTT(flows []*flow, quantiles ...float64) *stats.Samples {
	var all stats.Samples
	for _, f := range flows {
		for _, q := range quantiles {
			all.Add(f.rtt.P(q))
		}
	}
	return &all
}

// convergence renders a stats.ConvergenceTime result for a report: the
// time as text and in the given unit, or "none" and -1 for a series that
// never settled.
func convergence(ct, unit sim.Duration) (string, float64) {
	if ct < 0 {
		return "none", -1
	}
	return ct.String(), float64(ct) / float64(unit)
}
