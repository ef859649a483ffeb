package telemetry

import (
	"fmt"
	"testing"
)

// BenchmarkTelemetryDisabled measures the nil-instrument fast path that
// every instrumented hot loop (dataplane enqueue, ufabe probe handling)
// pays when telemetry is off: it must be 0 allocs/op and a few ns of nil
// checks, so uninstrumented runs stay within 5% of the pre-telemetry
// scheduler benchmarks.
func BenchmarkTelemetryDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("dp.port.tx_packets")
	g := r.Gauge("dp.port.qlen_hiwater_bytes")
	s := r.Series("dp.port.qlen_bytes", 0)
	h := r.Histogram("dp.port.qdepth_bytes")
	rec := r.Recorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(1500)
		g.SetMax(float64(i))
		s.Add(int64(i), float64(i))
		h.Observe(float64(i))
		rec.Record(Event{T: int64(i), Kind: EvDrop, B: int64(i), Trace: SpanID(int64(i)), Span: 1})
	}
	if c.Value() != 0 {
		b.Fatal("nil counter must stay 0")
	}
}

// BenchmarkTelemetryEnabled is the same loop with live instruments, for
// comparing the cost of turning telemetry on.
func BenchmarkTelemetryEnabled(b *testing.B) {
	r := New()
	c := r.Counter("dp.port.tx_packets")
	g := r.Gauge("dp.port.qlen_hiwater_bytes")
	s := r.Series("dp.port.qlen_bytes", 1<<12)
	h := r.Histogram("dp.port.qdepth_bytes")
	rec := r.EnableRecorder(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(1500)
		g.SetMax(float64(i))
		s.Add(int64(i), float64(i))
		h.Observe(float64(i))
		rec.Record(Event{T: int64(i), Kind: EvDrop, B: int64(i), Trace: SpanID(int64(i)), Span: 1})
	}
}

// BenchmarkRecord records into a full ring the mix an instrumented fabric
// records: 128 edge agents and 64 links as entities, the probe/stage/drop
// notes or none, a trace id on most events. The ring is full before the
// timer starts, so allocs/op must be 0.
func BenchmarkRecord(b *testing.B) {
	kinds := []EventKind{EvProbeTX, EvProbeRX, EvWindow, EvRegister, EvDrop, EvStage}
	notes := []string{"probe", "", "", "update", "overflow", "steady"}
	evs := make([]Event, 4096)
	for i := range evs {
		k := i % len(kinds)
		ev := Event{T: int64(i), Kind: kinds[k], Entity: fmt.Sprintf("ufabe.h%d", i%128), A: int64(i % 1000),
			B: int64(i % 7), V: float64(i), Note: notes[k], Trace: SpanID(TraceProbe, int64(i)), Span: 1}
		if ev.Kind == EvRegister || ev.Kind == EvDrop {
			ev.Entity = fmt.Sprintf("link.s%d-s%d", i%64, (i+1)%64)
		}
		evs[i] = ev
	}
	rec := newRecorder(1 << 14)
	for i := 0; i < 1<<14; i++ {
		rec.Record(evs[i%len(evs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(evs[i%len(evs)])
	}
}
