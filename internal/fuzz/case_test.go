package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// hostileTopologies are topologies a case file can name and no builder may
// be handed: before Topology.Build checked them the first panicked in
// topo.AddDuplexLink, the next three allocated until the process was killed,
// and the fifth built a degenerate graph that replayed as "clean".
var hostileTopologies = []struct{ name, topology string }{
	{"negative capacity", `{"kind":"star","hosts":4,"capacity_gbps":-5}`},
	{"two billion hosts", `{"kind":"star","hosts":2000000000}`},
	{"million-pod clos", `{"kind":"clos","pods":1000000,"tors_per_pod":2,"aggs_per_pod":2,"cores":2,"hosts_per_tor":2}`},
	{"overflowing clos", `{"kind":"clos","pods":3037000500,"tors_per_pod":3037000500,"aggs_per_pod":1,"cores":1,"hosts_per_tor":3037000500}`},
	{"negative clos dimension", `{"kind":"clos","pods":2,"tors_per_pod":-1,"aggs_per_pod":2,"cores":2,"hosts_per_tor":2}`},
	{"zero aggs", `{"kind":"twotier","aggs":0,"hosts":2}`},
	{"huge twotier", `{"kind":"twotier","aggs":2,"hosts":1000000000}`},
	{"one-host star", `{"kind":"star","hosts":1}`},
	{"unknown kind", `{"kind":"mesh","hosts":4}`},
}

// hostileCase wraps a topology into an otherwise valid case file.
func hostileCase(topology string) []byte {
	return []byte(`{"name":"hostile","seed":1,"topology":` + topology + `,"horizon_ps":2000000000,"tenants":[]}`)
}

// TestHostileTopologies: every hostile topology is refused with an error —
// no panic, and nothing built first (under 1 MiB allocated).
func TestHostileTopologies(t *testing.T) {
	for _, row := range hostileTopologies {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := parse(hostileCase(row.topology))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("parsed into %+v, want an error", c.Topology)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("allocated %d bytes before refusing", got)
			}
		})
	}
	// The budget is not a ban on fabrics larger than the generator's.
	if _, err := (&Topology{Kind: "clos", Pods: 4, ToRsPerPod: 4, AggsPerPod: 4, Cores: 16, HostsPerToR: 16}).Build(); err != nil {
		t.Errorf("a 256-host clos is refused: %v", err)
	}
}

// FuzzParseCase: parse returns a case or an error for any bytes — it never
// panics — and a case it returns survives Encode → parse → Encode unchanged.
// `go test` runs the seeds: the committed regressions and the hostile rows.
func FuzzParseCase(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "regressions", "*.json"))
	if err != nil || len(files) < 3 {
		f.Fatalf("regression corpus: %d files, err %v", len(files), err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, row := range hostileTopologies {
		f.Add(hostileCase(row.topology))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parse(data)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("encode a parsed case: %v", err)
		}
		again, err := parse(enc)
		if err != nil {
			t.Fatalf("re-parse an encoded case: %v\n%s", err, enc)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the case (err %v):\n%s\nvs\n%s", err, enc, enc2)
		}
	})
}
