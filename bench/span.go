package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around its own call
// into a layer. Spans of one repetition share Rep; Parent is the index of
// the enclosing span in the same repetition's list (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Rep     string `json:"rep"`
	// Arg carries the request id on ctl_churn's http.* roots.
	Arg string `json:"arg,omitempty"`
}

// tracer records spans in memory; they are written out when the harness
// ends. A nil *tracer records nothing, so the untraced runs that produce
// the end-to-end metrics pay one nil check per boundary. It is used from
// one goroutine at a time: the harness owns no callback that runs on the
// sharded core's workers.
type tracer struct {
	epoch time.Time
	rep   string
	spans []span
	open  []int // stack of indices into spans
}

func newTracer(rep string) *tracer {
	return &tracer{epoch: time.Now(), rep: rep}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	return t.beginArg(name, "")
}

func (t *tracer) beginArg(name, arg string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, Arg: arg,
		StartNs: time.Since(t.epoch).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
}

// selfTime is one row of the per-span-name table: how often the span ran
// and how long it ran for, with and without its children.
type selfTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes folds one repetition's spans into per-name totals. A span's
// self time is its duration minus the part its direct children cover;
// children of one parent never overlap because the tracer is a stack.
func selfTimes(spans []span) []selfTime {
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Count++
		st.TotalNs += d
		st.SelfNs += d - childNs[i]
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeChromeTrace writes the repetitions' spans as Chrome trace-event
// JSON (chrome://tracing and ui.perfetto.dev load it). Each repetition is
// one thread; every event carries its span index, its parent's index and
// the repetition id, so the tree can be rebuilt from the file.
func writeChromeTrace(w io.Writer, reps [][]span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for tid, spans := range reps {
		for i, s := range spans {
			args := map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep}
			if s.Arg != "" {
				args["arg"] = s.Arg
			}
			ev := map[string]any{
				"name": s.Name, "ph": "X", "pid": 1, "tid": tid + 1,
				"ts":   float64(s.StartNs) / 1e3,
				"dur":  float64(s.EndNs-s.StartNs) / 1e3,
				"args": args,
			}
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteByte('\n')
			bw.Write(b)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
