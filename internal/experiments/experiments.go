// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from an Options struct to
// a Report; the cmd/ufabsim CLI, the root bench harness and EXPERIMENTS.md
// are all generated from the same functions.
//
// Absolute numbers differ from the paper (the substrate is a discrete-event
// simulator, not the authors' testbed), but each Report records the
// quantities whose *shape* the paper's claims rest on: who keeps its
// guarantee, whose tail latency is bounded, where the crossovers fall.
package experiments

import (
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strings"

	"ufab/internal/audit"
	"ufab/internal/dataplane"
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
// metrics recorded through Metric.
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

// NewReport creates an empty report with a fresh registry.
func NewReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Reg: telemetry.New()}
}

// Printf appends a formatted line.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// seriesKey maps an attached curve's display name to its registry name.
func seriesKey(name string) string { return "series." + telemetry.Token(name) }

// AddSeries attaches a named curve to the report, copying its points into
// a registry series.
func (r *Report) AddSeries(name string, s *stats.Series) {
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

// Metric records a headline number under a dotted name (the registry
// panics on undotted names). Re-recording a name overwrites its value but
// keeps its original position.
func (r *Report) Metric(name string, v float64) {
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
// through Metric appear, which keeps golden comparison identical whether
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

// Entry describes one runnable experiment.
type Entry struct {
	ID    string
	Title string
	Run   func(Options) *Report
}

// All lists every experiment in paper order.
var All = []Entry{
	{"fig1", "ECS motivation: bursty interference inflates tail RTT at low average load", Fig1},
	{"fig2", "EBS motivation: millisecond bursts inflate tail task completion time", Fig2},
	{"fig3", "Hash polarization: load imbalance across equivalent uplinks", Fig3},
	{"fig4", "Case-1: incast RTT distribution vs incast degree (PWC vs uFAB)", Fig4},
	{"fig5", "Case-2: utilization-oriented migration breaks bandwidth guarantees", Fig5},
	{"fig11", "Bandwidth guarantee with work conservation under high load", Fig11},
	{"fig12", "14-to-1 incast: convergence and bounded latency", Fig12},
	{"fig13", "Memcached QPS/QCT under MongoDB background traffic", Fig13},
	{"fig14", "EBS task completion times under guarantees", Fig14},
	{"fig15", "100GE predictability under churn and failure; probing overhead", Fig15},
	{"fig16", "90-to-1 highly dynamic workload", Fig16},
	{"fig17", "Real workload on the large fabric (oversubscription x load sweep)", Fig17},
	{"fig18", "Sensitivity: migration freeze window and probing frequency", Fig18},
	{"fig19", "Control-law reaction: primal (2 RTT) vs dual (4 RTT)", Fig19},
	{"fig20", "Heterogeneous response delays: 128-to-1 convergence", Fig20},
	{"tab3", "uFAB-E FPGA resource consumption model", Table3},
	{"tab4", "uFAB-C switch resource consumption model", Table4},
	{"shardsim", "sharded parallel-in-time core: cross-pod workload identity", ShardSim},
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

// ---- shared fabric helpers --------------------------------------------------

// scheme identifies the system under test in comparative experiments.
type scheme int

const (
	schemeUFAB scheme = iota
	schemeUFABPrime
	schemePWC
	schemeES
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
	}
	return "?"
}

// system is the uniform handle over a μFAB or baseline deployment used by
// the comparative experiments.
type system struct {
	scheme scheme
	// eng drives the deployment's simulation and doubles as the
	// coordinator scheduling context: experiment timelines (workload
	// feeders, chaos, samplers) scheduled here run at global barriers with
	// exclusive access to fabric state for every worker count.
	eng   sim.Driver
	graph *topo.Graph

	uf *vfabric.Fabric
	bl *blhost.Fabric

	// reg is the attached registry (nil when telemetry is off). fctVFs and
	// fctPair track the per-pair FCT histograms created by addMessageFlow
	// so mergeTenantFCT can aggregate them per tenant after the run. Both
	// are written only at setup time (coordinator context).
	reg     *telemetry.Registry
	fctVFs  []int32
	fctPair map[int32][]*telemetry.Histogram
}

// flowHandle is the uniform per-flow measurement handle.
type flowHandle struct {
	ufFlow *vfabric.Flow
	blFlow *blhost.FlowHandle
}

func (h *flowHandle) buffer() *flowBuffer {
	if h.ufFlow != nil {
		return &flowBuffer{uf: h.ufFlow}
	}
	return &flowBuffer{bl: h.blFlow}
}

// flowBuffer writes demand into either fabric's buffer.
type flowBuffer struct {
	uf *vfabric.Flow
	bl *blhost.FlowHandle
}

func (b *flowBuffer) Add(n int64) {
	if b.uf != nil {
		b.uf.Buffer.Add(n)
	} else {
		b.bl.Buffer.Add(n)
	}
}

func (b *flowBuffer) Drain() {
	if b.uf != nil {
		b.uf.Buffer.Consume(b.uf.Buffer.Pending())
	} else {
		b.bl.Buffer.Consume(b.bl.Buffer.Pending())
	}
}

func (h *flowHandle) rate(from, to sim.Time) float64 {
	if h.ufFlow != nil {
		return h.ufFlow.Rate(from, to)
	}
	return h.blFlow.Rate(from, to)
}

func (h *flowHandle) rtt() *stats.Samples {
	if h.ufFlow != nil {
		return &h.ufFlow.Pair.RTT
	}
	return &h.blFlow.Flow.RTT
}

func (h *flowHandle) delivered() int64 {
	if h.ufFlow != nil {
		return h.ufFlow.Pair.Delivered
	}
	return h.blFlow.Flow.Delivered
}

// newSystem builds a deployment of the given scheme over g, with its own
// private simulation driver. A non-nil reg attaches the run's telemetry
// registry: the full fabric for μFAB schemes, the dataplane link
// instruments for baselines. A non-nil aud additionally attaches the
// predictability auditor to μFAB schemes (baselines make no μFAB
// guarantees to audit). μFAB schemes honor o.Shards through
// vfabric.Build; baselines run on a plain engine (they have no shards
// for workers to execute).
func newSystem(s scheme, o Options, g *topo.Graph, seed int64, reg *telemetry.Registry, aud *audit.Config) *system {
	sys := &system{scheme: s, graph: g, reg: reg, fctPair: make(map[int32][]*telemetry.Histogram)}
	switch s {
	case schemeUFAB, schemeUFABPrime:
		cfg := vfabric.Config{Seed: seed, Telemetry: reg, Audit: aud}
		cfg.Edge.DisableTwoStage = s == schemeUFABPrime
		uf, err := vfabric.Build(vfabric.BuildOptions{Graph: g, Cfg: cfg, Shards: o.Shards})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		sys.uf = uf
		sys.eng = uf.Eng
	case schemePWC:
		eng := sim.New()
		sys.eng = eng
		sys.bl = blhost.NewFabric(eng, g, blhost.Config{Scheme: blhost.PWC, Seed: seed}, dataplane.Config{Telemetry: reg})
	case schemeES:
		eng := sim.New()
		sys.eng = eng
		sys.bl = blhost.NewFabric(eng, g, blhost.Config{Scheme: blhost.ESClove, Seed: seed}, dataplane.Config{Telemetry: reg})
	}
	return sys
}

// hostScheduler returns the scheduling context owning a host: per-host
// workload drivers (as opposed to coordinator-paced feeders) must
// schedule there so their traffic runs inside the host's shard, beside
// the other shards when there are workers. Baselines are single-context,
// so it is their engine.
func (sys *system) hostScheduler(host topo.NodeID) sim.Scheduler {
	if sys.uf != nil {
		return sys.uf.HostScheduler(host)
	}
	return sys.eng
}

// addVF registers a VF (μFAB) — a no-op for baselines, which carry the
// weight per flow.
func (sys *system) addVF(id int32, guaranteeBps float64, class int) {
	if sys.uf != nil {
		sys.uf.AddVF(id, guaranteeBps, class)
	}
}

// addFlow creates a backing VM-pair of the VF with guarantee tokens.
func (sys *system) addFlow(vf int32, guaranteeBps float64, src, dst topo.NodeID) *flowHandle {
	if sys.uf != nil {
		v := sys.uf.VFs[vf]
		if v == nil {
			v = sys.uf.AddVF(vf, guaranteeBps, weightClass(guaranteeBps))
		}
		return &flowHandle{ufFlow: sys.uf.AddFlow(v, src, dst, 0)}
	}
	tokens := guaranteeBps / 100e6
	return &flowHandle{blFlow: sys.bl.AddFlow(vf, tokens, src, dst, 4)}
}

// weightClass maps a guarantee to one of the 8 WFQ classes.
func weightClass(guaranteeBps float64) int {
	c := 0
	for g := 1e9; g < guaranteeBps && c < 7; g *= 2 {
		c++
	}
	return c
}

func (sys *system) startSampling(interval sim.Duration) func() {
	if sys.uf != nil {
		return sys.uf.StartSampling(interval)
	}
	return sys.bl.StartSampling(interval)
}

func (sys *system) sampleRates() {
	if sys.uf != nil {
		sys.uf.SampleRates()
	} else {
		sys.bl.SampleRates()
	}
}

func (sys *system) maxQueueBytes() int {
	if sys.uf != nil {
		return sys.uf.MaxQueueBytes()
	}
	return sys.bl.MaxQueueBytes()
}

// queueHighWaters gathers the high-water marks of all switch egress
// queues as a sorted-once snapshot (quantiles come off it without
// re-sorting per call).
func (sys *system) queueHighWaters() stats.Snapshot {
	net := sys.net()
	var s stats.Samples
	for i := range net.Ports {
		p := &net.Ports[i]
		if sys.graph.Node(p.Link.Src).Kind != topo.Switch {
			continue
		}
		s.Add(float64(p.MaxQueueBytes))
	}
	return s.Snapshot()
}

func (sys *system) net() *dataplane.Network {
	if sys.uf != nil {
		return sys.uf.Net
	}
	return sys.bl.Net
}

// backlog fills a flow with effectively infinite demand.
func (h *flowHandle) backlog() { h.buffer().Add(1 << 42) }

// mcMessages dials a message-tracked flow on either fabric.
func (sys *system) addMessageFlow(vf int32, guaranteeBps float64, src, dst topo.NodeID) (*workload.Messages, *flowHandle) {
	msgs := &workload.Messages{}
	if sys.reg != nil {
		// Per-pair FCT histogram: completions fire in the source host's
		// shard, so each histogram keeps the single-writer discipline.
		// mergeTenantFCT folds them into per-tenant distributions after
		// the run.
		ent := fmt.Sprintf("workload.vf%d-%s-%s", vf,
			telemetry.Token(sys.graph.Node(src).Name), telemetry.Token(sys.graph.Node(dst).Name))
		h := sys.reg.Histogram(ent + ".fct_us")
		sys.fctPair[vf] = append(sys.fctPair[vf], h)
		if len(sys.fctPair[vf]) == 1 {
			sys.fctVFs = append(sys.fctVFs, vf)
		}
		msgs.Observe(func(_ workload.Message, fct sim.Duration) { h.Observe(fct.Micros()) })
	}
	if sys.uf != nil {
		v := sys.uf.VFs[vf]
		if v == nil {
			v = sys.uf.AddVF(vf, guaranteeBps, weightClass(guaranteeBps))
		}
		fl := sys.uf.AddFlowDemand(v, src, dst, 0, msgs)
		return msgs, &flowHandle{ufFlow: fl}
	}
	tokens := guaranteeBps / 100e6
	fh := sys.bl.AddFlowDemand(vf, tokens, src, dst, 4, msgs)
	return msgs, &flowHandle{blFlow: fh}
}

// mergeTenantFCT folds each tenant's per-pair FCT histograms into one
// "workload.vf<id>.fct_us" distribution — the shared global bucket layout
// makes the merge exact. Call at the coordinator after the horizon; merge
// order follows creation order, so the merged histograms are byte-identical
// across -jobs and -shards.
func (sys *system) mergeTenantFCT() {
	if sys.reg == nil {
		return
	}
	for _, vf := range sys.fctVFs {
		merged := sys.reg.Histogram(fmt.Sprintf("workload.vf%d.fct_us", vf))
		for _, h := range sys.fctPair[vf] {
			merged.Merge(h)
		}
	}
}

// newRand returns a deterministic RNG for experiment-level choices.
func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }
