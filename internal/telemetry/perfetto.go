package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// WritePerfettoJSON exports the run's flight-recorder trace (what
// WriteTraceJSONL writes) as Chrome trace-event JSON, the format the
// Perfetto UI (ui.perfetto.dev) opens directly. The mapping:
//
//   - Every distinct event entity becomes one "thread" (tid), numbered in
//     first-seen canonical-merge order with a thread_name metadata record,
//     so lanes are stable across runs, -jobs and -shards.
//   - Probe round trips (EvProbeTX/EvProbeRX carrying a trace id) become
//     async begin/end pairs keyed by that id, so a round trip renders as
//     one spanning slice from TX to RX.
//   - Other events carrying a trace id (window updates, admission stages,
//     migrations) become async instants ("n") on the same id, grouping
//     them with their cause.
//   - Untraced events render as plain thread instants ("i").
//
// Timestamps are simulated picoseconds scaled to the format's microsecond
// unit. The encoding is hand-rolled with fixed field order, so the export
// is byte-identical for identical event streams.
func (r *Registry) WritePerfettoJSON(w io.Writer) error {
	if r == nil || r.rec == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	// Assign one tid per entity in first-seen canonical order: a first pass
	// over the trace, since the thread names lead the file.
	tids := make(map[string]int)
	var entities []string
	r.eachTraceEvent(func(ev Event) {
		if _, ok := tids[ev.Entity]; !ok {
			tids[ev.Entity] = len(entities) + 1
			entities = append(entities, ev.Entity)
		}
	})

	bw.WriteString(`{"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n  ")
	}
	for i, entity := range entities {
		sep()
		bw.WriteString(`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(i + 1))
		bw.WriteString(`,"args":{"name":`)
		name := entity
		if name == "" {
			name = "(run)"
		}
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(`}}`)
	}
	r.eachTraceEvent(func(ev Event) {
		sep()
		ph, cat := "i", ""
		if ev.Trace != 0 {
			switch ev.Kind {
			case EvProbeTX:
				ph, cat = "b", "probe"
			case EvProbeRX:
				ph, cat = "e", "probe"
			default:
				ph, cat = "n", ev.Kind.String()
			}
		}
		bw.WriteString(`{"name":`)
		name := ev.Kind.String()
		if ev.Note != "" {
			name += ":" + ev.Note
		}
		bw.WriteString(strconv.Quote(name))
		bw.WriteString(`,"ph":"`)
		bw.WriteString(ph)
		bw.WriteString(`","ts":`)
		bw.WriteString(JSONFloat(float64(ev.T) / 1e6))
		bw.WriteString(`,"pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(tids[ev.Entity]))
		if ev.Trace != 0 {
			bw.WriteString(`,"cat":`)
			bw.WriteString(strconv.Quote(cat))
			bw.WriteString(`,"id":"`)
			bw.WriteString(strconv.FormatUint(ev.Trace, 16))
			bw.WriteByte('"')
		}
		bw.WriteString(`,"args":{`)
		bw.WriteString(`"a":`)
		bw.WriteString(strconv.FormatInt(ev.A, 10))
		bw.WriteString(`,"b":`)
		bw.WriteString(strconv.FormatInt(ev.B, 10))
		bw.WriteString(`,"v":`)
		bw.WriteString(JSONFloat(ev.V))
		if ev.Span != 0 {
			bw.WriteString(`,"span":"`)
			bw.WriteString(strconv.FormatUint(ev.Span, 16))
			bw.WriteByte('"')
		}
		bw.WriteString(`}}`)
	})
	if !first {
		bw.WriteByte('\n')
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
