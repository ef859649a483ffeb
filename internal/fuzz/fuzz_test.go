package fuzz

import (
	"bytes"
	"testing"
)

// TestGenerateDeterministic: the same seed must yield the byte-identical
// case — the whole corpus-replay and shrink machinery rests on it.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, err := Generate(seed).Encode()
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		b, err := Generate(seed).Encode()
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestGenerateRoundTrip: every generated case must survive
// Encode → parse → Encode byte-identically, so written failing cases are
// faithful reproducers.
func TestGenerateRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := Generate(seed)
		a, err := c.Encode()
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		parsed, err := parse(a)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		b, err := parsed.Encode()
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: round trip changed the case:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestExecutorVerdictDeterministic: the executor itself is part of the
// determinism contract — running one case twice (with the built-in replay
// check active, so four simulations total) must classify identically.
func TestExecutorVerdictDeterministic(t *testing.T) {
	x := &Executor{Replay: true}
	for seed := int64(1); seed <= 5; seed++ {
		c := Generate(seed)
		r1, err := x.Run(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := x.Run(c)
		if err != nil {
			t.Fatalf("seed %d: rerun: %v", seed, err)
		}
		if r1.Verdict != r2.Verdict || r1.Excused != r2.Excused ||
			r1.Unexcused != r2.Unexcused || r1.FindingsJSONL != r2.FindingsJSONL {
			t.Fatalf("seed %d: verdicts diverged: %+v vs %+v", seed, r1, r2)
		}
	}
}

// TestGeneratedSeedsPassOracle pins the acceptance bar on a small fixed
// prefix of the seed space: generated cases on the current tree run clean
// or chaos-excused, never unexcused. The CLI smoke gate covers a wider
// sweep; this keeps the property under `go test`.
func TestGeneratedSeedsPassOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	x := &Executor{Replay: true}
	for seed := int64(1); seed <= 8; seed++ {
		r, err := x.Run(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Verdict.Failed() {
			t.Errorf("seed %d: verdict %s (kinds %v, mismatch %q)\n%s",
				seed, r.Verdict, r.Kinds, r.Mismatch, r.FindingsJSONL)
		}
	}
}

// TestValidateRejectsMalformed: obvious junk must be an error, not a
// panic or a silently-empty run.
func TestValidateRejectsMalformed(t *testing.T) {
	base := func() *Case { return Generate(1) }

	cases := []struct {
		name   string
		mutate func(*Case)
	}{
		{"zero horizon", func(c *Case) { c.HorizonPS = 0 }},
		{"bad topology", func(c *Case) { c.Topology = Topology{Kind: "moebius"} }},
		{"duplicate vf", func(c *Case) { c.Tenants[1].VF = c.Tenants[0].VF }},
		{"zero guarantee", func(c *Case) { c.Tenants[0].GuaranteeBps = 0 }},
		{"no pairs", func(c *Case) { c.Tenants[0].Pairs = nil }},
		{"self pair", func(c *Case) { c.Tenants[0].Pairs[0].Dst = c.Tenants[0].Pairs[0].Src }},
		{"unknown workload", func(c *Case) { c.Tenants[0].Workload.Kind = "tsunami" }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed case", tc.name)
		}
	}
}
