package chaos_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ufab/internal/chaos"
	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
)

// fuzzHorizon bounds each injected run: long enough for every seed's events
// to fire against live traffic, short enough to keep an exec in the
// milliseconds.
const fuzzHorizon = 10 * sim.Millisecond

// FuzzParseScenario holds the scenario decoder — what `ufabsim -scenario`
// reads — to two properties: Parse either errors or returns a scenario whose
// Encode → Parse → Encode is byte-identical, and injecting that scenario
// into a running testbed fabric never panics, whatever ids, times or
// degradations it carries.
//
//	go test ./internal/chaos -run '^$' -fuzz FuzzParseScenario -fuzztime 1m
func FuzzParseScenario(f *testing.F) {
	// Gray faults the simulator cannot schedule: a packet arriving before it
	// left, an overflowing propagation delay, an overflowing serialization.
	f.Add([]byte(`{"name":"neg","events":[{"at_ps":1000000,"kind":"link-degrade","link":0,"duplex":true,"degradation":{"extra_delay_ps":-1000000000}}]}`))
	f.Add([]byte(`{"name":"huge","events":[{"at_ps":1000000,"kind":"link-degrade","link":0,"duplex":true,"degradation":{"extra_delay_ps":9223372036854775000}}]}`))
	f.Add([]byte(`{"name":"tiny","events":[{"at_ps":1000000,"kind":"link-degrade","link":0,"duplex":true,"degradation":{"capacity_scale":1e-300}}]}`))
	// The chaoslab experiment's built-in sampler, one event of every kind,
	// scaled to the horizon.
	tb := topo.NewTestbed(topo.TestbedConfig{})
	u := fuzzHorizon / 24
	lid := tb.Graph.Node(tb.Aggs[1]).Out[1] // Pod1-Agg2 → Core2
	sampler, err := chaos.New("builtin-sampler").
		LinkDown(4*u, lid, true).
		LinkUp(6*u, lid, true).
		Degrade(8*u, lid, true, dataplane.Degradation{CapacityScale: 0.5, LossProb: 0.002}).
		Restore(12*u, lid, true).
		RestartAgent(14*u, tb.Cores[1]).
		ArriveTenant(16*u, chaos.TenantSpec{
			VF: 50, GuaranteeBps: 1e9, WeightClass: 1,
			Pairs: []chaos.PairSpec{{Src: tb.Servers[5], Dst: tb.Servers[6]}},
		}).
		DepartTenant(20*u, 50).
		CrashNode(21*u, tb.Cores[0]).
		RecoverNode(22*u, tb.Cores[0]).
		Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sampler)
	// The chaos block of every committed fuzz regression case.
	cases, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "regressions", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range cases {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var c struct {
			Chaos json.RawMessage `json:"chaos"`
		}
		if err := json.Unmarshal(raw, &c); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if len(c.Chaos) > 0 {
			f.Add([]byte(c.Chaos))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := chaos.Parse(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("Encode of a parsed scenario: %v", err)
		}
		back, err := chaos.Parse(enc)
		if err != nil {
			t.Fatalf("Parse of an encoded scenario: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("Encode → Parse → Encode is not a fixed point (%v):\n%s\nvs\n%s", err, enc, again)
		}
		injectOnTestbed(t, back)
	})
}

// injectOnTestbed replays s against the chaoslab rig's traffic — a
// cross-pod incast and an intra-ToR pair on the Fig-10 testbed — for
// fuzzHorizon on an inline (0-worker) engine. A panic fails the fuzz input.
func injectOnTestbed(t *testing.T, s *chaos.Scenario) {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	eng := sim.New()
	cfg := vfabric.Config{Seed: 1}
	cfg.Core.CleanupPeriod = fuzzHorizon / 8
	fab, err := vfabric.Build(vfabric.BuildOptions{Graph: tb.Graph, Cfg: cfg, Eng: eng})
	if err != nil {
		t.Fatal(err)
	}
	fab.StartCoreCleanup()
	for i, src := range []topo.NodeID{tb.Servers[0], tb.Servers[1], tb.Servers[4]} {
		dst := tb.Servers[7]
		if src == tb.Servers[4] {
			dst = tb.Servers[5]
		}
		vf := fab.AddVF(int32(i+1), 2e9, 1)
		fab.AddFlow(vf, src, dst, 0).Buffer.Add(1 << 42)
	}
	fab.ApplyScenario(s)
	eng.RunUntil(fuzzHorizon)
}
