// Package fuzz is μFAB's scenario fuzzer: a seeded generator composes a
// random topology, tenant/workload mix, chaos scenario and
// admission-checked churn into one self-contained Case; an executor
// replays the case under the online predictability auditor and
// classifies the outcome (clean / excused / unexcused finding / panic /
// determinism mismatch); and a shrinker minimizes a failing case to a
// JSON reproducer small enough to commit under testdata/regressions/,
// where a regression test replays it forever.
//
// The auditor is the bug oracle: any unexcused finding — a hose
// guarantee (Eqn 1), work-conservation, queue-bound, Φ/W-accounting or
// ledger-bound violation outside a chaos-excused window — fails the
// case. Everything is deterministic per case: the same JSON always
// produces the same verdict, which is what makes shrinking and the
// committed corpus meaningful.
package fuzz

import (
	"encoding/json"
	"fmt"
	"os"

	"ufab/internal/chaos"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// Topology names and parameterizes one of the repo's topology builders.
type Topology struct {
	// Kind is one of "testbed" (the Fig-10 8-server 3-tier pod pair),
	// "star" (Hosts around one switch), "twotier" (Aggs parallel paths,
	// Hosts per ToR) or "clos" (Pods × ToRsPerPod × HostsPerToR 3-tier).
	Kind string `json:"kind"`
	// Hosts parameterizes star (host count) and twotier (hosts per ToR).
	Hosts int `json:"hosts,omitempty"`
	// Aggs parameterizes twotier (parallel aggregation switches).
	Aggs int `json:"aggs,omitempty"`
	// Clos shape; zero values default to a 2×2×2-pod 8-host fabric.
	Pods        int `json:"pods,omitempty"`
	ToRsPerPod  int `json:"tors_per_pod,omitempty"`
	AggsPerPod  int `json:"aggs_per_pod,omitempty"`
	Cores       int `json:"cores,omitempty"`
	HostsPerToR int `json:"hosts_per_tor,omitempty"`
	// CapacityGbps is the uniform line rate (default 10).
	CapacityGbps float64 `json:"capacity_gbps,omitempty"`
}

// maxNodes bounds the hosts plus switches of a topology somebody outside
// the program describes. Cases arrive as files (`ufabsim fuzz -replay`,
// `-corpus`) and `ufabsim topo` takes dimensions as flags, so the size is
// checked before anything is built; the generator draws at most 9 hosts and
// the committed corpus tops out at the 18-node testbed.
const maxNodes = 512

// CheckSize is the one size rule for such a topology: it rejects a
// dimension below 1 and a node count — computed by the caller in floating
// point, where hostile dimensions cannot overflow — above the budget.
func CheckSize(kind string, nodes float64, dims ...int) error {
	for _, d := range dims {
		if d < 1 {
			return fmt.Errorf("fuzz: %s dimension %d, want >= 1", kind, d)
		}
	}
	if nodes > maxNodes {
		return fmt.Errorf("fuzz: %s of %.0f nodes exceeds the %d-node budget", kind, nodes, maxNodes)
	}
	return nil
}

// Build constructs the graph, or returns an error for a shape no builder
// accepts: a negative capacity, a dimension below 1, more than maxNodes
// nodes. Node and link IDs are assigned by the builders deterministically,
// so a case's chaos events and tenant pairs may reference them directly.
func (t *Topology) Build() (*topo.Graph, error) {
	if t.CapacityGbps < 0 {
		return nil, fmt.Errorf("fuzz: negative capacity_gbps %g", t.CapacityGbps)
	}
	capa := topo.Gbps(t.CapacityGbps)
	if t.CapacityGbps == 0 {
		capa = topo.Gbps(10)
	}
	switch t.Kind {
	case "testbed":
		return topo.NewTestbed(topo.TestbedConfig{LinkCapacity: capa}).Graph, nil
	case "star":
		n := t.Hosts
		if n < 2 {
			return nil, fmt.Errorf("fuzz: star needs >= 2 hosts, have %d", n)
		}
		if err := CheckSize(t.Kind, float64(n)+1); err != nil {
			return nil, err
		}
		return topo.NewStar(n, capa, 2*sim.Microsecond).Graph, nil
	case "twotier":
		aggs, hosts := t.Aggs, t.Hosts
		if err := CheckSize(t.Kind, 2+float64(aggs)+2*float64(hosts), aggs, hosts); err != nil {
			return nil, err
		}
		return topo.NewTwoTier(aggs, hosts, capa, 2*sim.Microsecond).Graph, nil
	case "clos":
		cfg := topo.ClosConfig{
			Pods: t.Pods, ToRsPerPod: t.ToRsPerPod, AggsPerPod: t.AggsPerPod,
			Cores: t.Cores, HostsPerToR: t.HostsPerToR,
			LinkCapacity: capa, PropDelay: sim.Microsecond,
		}
		if cfg.Pods == 0 {
			cfg = topo.ClosConfig{Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Cores: 2,
				HostsPerToR: 2, LinkCapacity: capa, PropDelay: sim.Microsecond}
		}
		perPod := float64(cfg.AggsPerPod) + float64(cfg.ToRsPerPod)*(1+float64(cfg.HostsPerToR))
		if err := CheckSize(t.Kind, float64(cfg.Cores)+float64(cfg.Pods)*perPod,
			cfg.Pods, cfg.ToRsPerPod, cfg.AggsPerPod, cfg.Cores, cfg.HostsPerToR); err != nil {
			return nil, err
		}
		return topo.NewClos(cfg).Graph, nil
	default:
		return nil, fmt.Errorf("fuzz: unknown topology kind %q", t.Kind)
	}
}

// Workload kinds a tenant's pairs can run.
const (
	// workloadBacklog keeps every pair fully backlogged (the hose
	// guarantee's covered regime).
	workloadBacklog = "backlog"
	// workloadFixedRate drips RateBps into each pair's buffer.
	workloadFixedRate = "fixedrate"
	// workloadOnOff alternates RateBps underload with a backlogged phase
	// every PeriodPS (the Fig-16 dynamic-demand shape).
	workloadOnOff = "onoff"
	// workloadPoisson sends Poisson message arrivals at RateBps offered
	// load with sizes drawn from Dist ("websearch" or "keyvalue").
	workloadPoisson = "poisson"
)

// Workload describes the traffic a tenant's pairs generate.
type Workload struct {
	Kind string `json:"kind"`
	// RateBps is the offered rate: fixedrate's drip, onoff's underload
	// phase, poisson's load target.
	RateBps float64 `json:"rate_bps,omitempty"`
	// PeriodPS is onoff's phase period (default 2 ms).
	PeriodPS sim.Duration `json:"period_ps,omitempty"`
	// Dist picks poisson's size distribution: "keyvalue" (default) or
	// "websearch".
	Dist string `json:"dist,omitempty"`
}

// Tenant is one standing tenant of the case, admitted through the
// placement controller at t = 0 and materialized with its workload.
type Tenant struct {
	VF           int32   `json:"vf"`
	GuaranteeBps float64 `json:"guarantee_bps"`
	WeightClass  int     `json:"weight_class"`
	// Pairs reuses the chaos tenant-spec pair encoding; BacklogBytes
	// applies to the backlog workload (<= 0 = effectively infinite).
	Pairs    []chaos.PairSpec `json:"pairs"`
	Workload Workload         `json:"workload"`
}

// spec converts the tenant to the chaos/placement tenant spec used for
// admission.
func (t *Tenant) spec() chaos.TenantSpec {
	return chaos.TenantSpec{
		VF:           t.VF,
		GuaranteeBps: t.GuaranteeBps,
		WeightClass:  t.WeightClass,
		Pairs:        append([]chaos.PairSpec(nil), t.Pairs...),
	}
}

// Case is one self-contained fuzz scenario: everything the executor
// needs to rebuild the run bit-identically lives here, and the whole
// thing round-trips through JSON.
type Case struct {
	Name string `json:"name"`
	// Seed drives the fabric's internal RNGs (path sampling, fault
	// randomness) and, unless the churn spec pins its own, the churn
	// arrival process.
	Seed int64 `json:"seed"`
	// Topology is rebuilt per run; IDs in Tenants/Chaos refer into it.
	Topology Topology `json:"topology"`
	// HorizonPS is the simulated run length.
	HorizonPS sim.Duration `json:"horizon_ps"`
	// SamplePS is the telemetry/audit sampling interval (default 250 µs).
	SamplePS sim.Duration `json:"sample_ps,omitempty"`
	// Tenants stand from t = 0 (each admission-checked; a rejected
	// standing tenant simply never materializes).
	Tenants []Tenant `json:"tenants"`
	// Churn, if present, drives open-loop tenant arrivals through the
	// admission controller.
	Churn *placement.ChurnConfig `json:"churn,omitempty"`
	// Chaos, if present, is injected at t = 0 with the controller as the
	// admission gate for its tenant events.
	Chaos *chaos.Scenario `json:"chaos,omitempty"`
}

// Encode renders the case as indented JSON (the committed-reproducer
// format).
func (c *Case) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// parse decodes a case and validates its shape (topology buildable,
// tenants well-formed, event times non-negative).
func parse(b []byte) (*Case, error) {
	c := &Case{}
	if err := json.Unmarshal(b, c); err != nil {
		return nil, fmt.Errorf("fuzz: parse case: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadFile reads a case JSON file.
func LoadFile(path string) (*Case, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteFile writes the case as indented JSON.
func (c *Case) WriteFile(path string) error {
	b, err := c.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Validate checks the case's static shape. Dynamic misuse (a pair with
// no path, an unknown chaos link) is the injector's and validator's
// business at run time — those must degrade gracefully, and the fuzzer
// exists to prove they do.
func (c *Case) Validate() error {
	g, err := c.Topology.Build()
	if err != nil {
		return err
	}
	if c.HorizonPS <= 0 {
		return fmt.Errorf("fuzz: case %q: non-positive horizon %d", c.Name, c.HorizonPS)
	}
	host := func(id topo.NodeID) bool {
		return int(id) >= 0 && int(id) < len(g.Nodes) && g.Node(id).Kind == topo.Host
	}
	seen := map[int32]bool{}
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.VF <= 0 || seen[t.VF] {
			return fmt.Errorf("fuzz: case %q: tenant %d has invalid or duplicate vf %d", c.Name, i, t.VF)
		}
		seen[t.VF] = true
		if t.GuaranteeBps <= 0 {
			return fmt.Errorf("fuzz: case %q: vf %d has non-positive guarantee", c.Name, t.VF)
		}
		if len(t.Pairs) == 0 {
			return fmt.Errorf("fuzz: case %q: vf %d has no pairs", c.Name, t.VF)
		}
		for _, pr := range t.Pairs {
			if !host(pr.Src) || !host(pr.Dst) || pr.Src == pr.Dst {
				return fmt.Errorf("fuzz: case %q: vf %d pair %d→%d is not a distinct host pair",
					c.Name, t.VF, pr.Src, pr.Dst)
			}
		}
		switch t.Workload.Kind {
		case "", workloadBacklog, workloadFixedRate, workloadOnOff, workloadPoisson:
		default:
			return fmt.Errorf("fuzz: case %q: vf %d has unknown workload kind %q", c.Name, t.VF, t.Workload.Kind)
		}
	}
	if c.Chaos != nil {
		for i, ev := range c.Chaos.Events {
			if ev.At < 0 {
				return fmt.Errorf("fuzz: case %q: chaos event %d at negative time", c.Name, i)
			}
		}
	}
	if c.Churn != nil && c.Churn.Arrivals > 0 && c.Churn.MeanInterarrival <= 0 {
		return fmt.Errorf("fuzz: case %q: churn needs a positive mean interarrival", c.Name)
	}
	return nil
}

// clone deep-copies the case so shrink passes can mutate candidates
// freely.
func (c *Case) clone() *Case {
	cp := *c
	cp.Tenants = make([]Tenant, len(c.Tenants))
	copy(cp.Tenants, c.Tenants)
	for i := range cp.Tenants {
		cp.Tenants[i].Pairs = append([]chaos.PairSpec(nil), c.Tenants[i].Pairs...)
	}
	if c.Churn != nil {
		cc := *c.Churn
		cc.Guarantees = append([]float64(nil), c.Churn.Guarantees...)
		cp.Churn = &cc
	}
	cp.Chaos = c.Chaos.Clone()
	return &cp
}

// weightClassFor maps a hose guarantee to the WFQ weight class the
// evaluation uses: class 0 at 1G and below, +1 per doubling, capped at 7.
func weightClassFor(guaranteeBps float64) int {
	c := 0
	for g := 1e9; g < guaranteeBps && c < 7; g *= 2 {
		c++
	}
	return c
}
