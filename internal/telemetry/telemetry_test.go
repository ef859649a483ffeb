package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("ufabe.h3.migrations")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ufabe.h3.migrations") != c {
		t.Fatalf("second Counter call should return the same instrument")
	}
	g := r.Gauge("link.a-b.qlen_hiwater_bytes")
	g.SetMax(10)
	g.SetMax(3)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge high-water = %g, want 10", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %g, want 7", got)
	}
	if got := r.counterValue("ufabe.h3.migrations"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.counterValue("no.such.counter"); got != 0 {
		t.Fatalf("missing CounterValue = %d, want 0", got)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("a.b")
	g := r.Gauge("a.b")
	s := r.Series("a.b", 8)
	h := r.Histogram("a.b")
	rec := r.Recorder()
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	s.Add(1, 2)
	h.Observe(3.5)
	h.Merge(&Histogram{})
	rec.Record(Event{T: 1, Kind: EvDrop})
	if c.Value() != 0 || g.Value() != 0 || s.Len() != 0 || rec.Len() != 0 {
		t.Fatalf("nil instruments must stay empty")
	}
	if h.Count() != 0 || h.valueSum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Buckets() != nil || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram must stay empty")
	}
	if got := r.Snapshot(); len(got.Counters)+len(got.Gauges)+len(got.Histograms)+len(got.Series) != 0 {
		t.Fatalf("nil registry snapshot must be empty")
	}
	if r.EnableRecorder(16) != nil {
		t.Fatalf("EnableRecorder on nil registry must return nil")
	}
}

func TestCheckNameRejectsMalformed(t *testing.T) {
	bad := []string{"", "nodot", "a..b", ".a.b", "a.b.", "a b.c", "a,b.c"}
	for _, name := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should panic", name)
				}
			}()
			New().Counter(name)
		}()
	}
	// These must all be fine.
	for _, name := range []string{"a.b", "ufab.tail_us.10", "link.core1-agg2.qlen_bytes"} {
		New().Counter(name)
	}
}

func TestSeriesRingWraparound(t *testing.T) {
	r := New()
	s := r.Series("x.y", 4)
	for i := 0; i < 10; i++ {
		s.Add(int64(i), float64(i)*2)
	}
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", s.Len(), s.Total())
	}
	pts := s.Points()
	for i, p := range pts {
		wantT := int64(6 + i)
		if p.T != wantT || p.V != float64(wantT)*2 {
			t.Fatalf("point %d = %+v, want t=%d v=%g", i, p, wantT, float64(wantT)*2)
		}
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	r := New()
	rec := r.EnableRecorder(4)
	if r.EnableRecorder(99) != rec {
		t.Fatalf("EnableRecorder must be idempotent")
	}
	for i := 0; i < 7; i++ {
		rec.Record(Event{T: int64(i), Kind: EvMigration, A: int64(i)})
	}
	if rec.Len() != 4 || rec.Total() != 7 || rec.Dropped() != 3 {
		t.Fatalf("len=%d total=%d dropped=%d, want 4/7/3", rec.Len(), rec.Total(), rec.Dropped())
	}
	evs := rec.Events()
	for i, ev := range evs {
		if ev.T != int64(3+i) {
			t.Fatalf("event %d has t=%d, want %d (oldest-first after wrap)", i, ev.T, 3+i)
		}
	}
}

func TestRecorderJSONL(t *testing.T) {
	r := New()
	rec := r.EnableRecorder(16)
	rec.Record(Event{T: 1000, Kind: EvProbeTX, Entity: "ufabe.h0", A: 3, Note: "probe"})
	rec.Record(Event{T: 2000, Kind: EvDrop, Entity: "link.a-b", B: 4096, Note: "overflow"})
	rec.Record(Event{T: 3000, Kind: EvProbeRX, Entity: "ufabe.h0", A: 3, V: 12.5})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t_ps":1000,"kind":"probe_tx","entity":"ufabe.h0","a":3,"note":"probe"}
{"t_ps":2000,"kind":"drop","entity":"link.a-b","b":4096,"note":"overflow"}
{"t_ps":3000,"kind":"probe_rx","entity":"ufabe.h0","a":3,"v":12.5}
`
	if buf.String() != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// TestSnapshotDeterministicOrdering creates the same instruments in three
// different (seed-shuffled) orders and demands byte-identical JSON.
func TestSnapshotDeterministicOrdering(t *testing.T) {
	names := []string{
		"ufabe.h0.migrations", "ufabe.h1.migrations", "link.a-b.drops",
		"link.b-c.drops", "sim.engine.events_processed", "ufabc.core1.probes_seen",
	}
	build := func(seed int) string {
		r := New()
		// Rotate creation order by seed; values do not depend on order.
		for i := range names {
			name := names[(i+seed*7)%len(names)]
			r.Counter(name).Add(int64(len(name)))
			r.Gauge(name + ".g").Set(float64(len(name)))
			r.Series(name+".s", 8).Add(int64(len(name)), 1)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := build(1)
	for seed := 2; seed <= 3; seed++ {
		if got := build(seed); got != first {
			t.Fatalf("snapshot JSON differs between creation orders:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, `"link.a-b.drops"`) {
		t.Fatalf("snapshot JSON missing expected name:\n%s", first)
	}
}

// TestRegistryConcurrentRuns models the parallel experiment runner: many
// goroutines each own a registry and hammer it, while a shared registry
// takes concurrent instrument *creation* (the only cross-goroutine use the
// package supports). Run under -race.
func TestRegistryConcurrentRuns(t *testing.T) {
	shared := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := New()
			rec := own.EnableRecorder(64)
			c := own.Counter("run.worker.ops")
			for i := 0; i < 1000; i++ {
				c.Inc()
				own.Gauge("run.worker.last").Set(float64(i))
				rec.Record(Event{T: int64(i), Kind: EvWindow})
				// Distinct names per worker: creation on the shared
				// registry is mutex-guarded.
				shared.Counter(fmt.Sprintf("worker.w%d.created", w)).Inc()
			}
			if c.Value() != 1000 {
				t.Errorf("worker %d counter = %d", w, c.Value())
			}
		}(w)
	}
	wg.Wait()
	snap := shared.Snapshot()
	if len(snap.Counters) != 8 {
		t.Fatalf("shared registry has %d counters, want 8", len(snap.Counters))
	}
	for _, c := range snap.Counters {
		if c.Value != 1000 {
			t.Fatalf("shared counter %s = %d, want 1000", c.Name, c.Value)
		}
	}
}

func TestToken(t *testing.T) {
	cases := map[string]string{
		"Core1":     "core1",
		"Agg2 S3":   "agg2-s3",
		"a.b":       "a-b",
		"":          "x",
		"Host,Left": "host-left",
	}
	for in, want := range cases {
		if got := Token(in); got != want {
			t.Errorf("Token(%q) = %q, want %q", in, got, want)
		}
	}
}
