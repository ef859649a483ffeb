package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// testDaemon spins a daemon (engine loop running, HTTP via httptest) and
// returns it with its base URL; cleanup stops everything.
func testDaemon(t *testing.T, cfg DaemonConfig) (*Daemon, string) {
	t.Helper()
	cfg.TickEvery = time.Millisecond
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go d.Loop()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Stop()
	})
	return d, srv.URL
}

func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestServerEndToEnd drives the full northbound surface over HTTP:
// admit, duplicate-reject, evaluate, inspect, release, drain, ledger
// verification.
func TestServerEndToEnd(t *testing.T) {
	_, base := testDaemon(t, DaemonConfig{Seed: 1})

	var dec Decision
	postJSON(t, base+"/v1/admit", placement.Request{ID: 1, GuaranteeBps: 2e9, VMs: 2, WeightClass: 5}, &dec)
	if !dec.Accepted || len(dec.Hosts) != 2 {
		t.Fatalf("admit: %+v", dec)
	}
	// Copy: later decodes into dec would otherwise scribble over the
	// shared backing array.
	placedHosts := append([]topo.NodeID(nil), dec.Hosts...)
	postJSON(t, base+"/v1/admit", placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 1}, &dec)
	if dec.Accepted || dec.Reason != "duplicate" {
		t.Fatalf("duplicate admit: %+v", dec)
	}
	postJSON(t, base+"/v1/evaluate", placement.Request{ID: 2, GuaranteeBps: 1e9, VMs: 3}, &dec)
	if !dec.Accepted {
		t.Fatalf("evaluate: %+v", dec)
	}

	var tenants []Tenant
	getJSON(t, base+"/v1/tenants", &tenants)
	if len(tenants) != 1 || tenants[0].Status != StatusPlaced {
		t.Fatalf("tenants: %+v", tenants)
	}
	var one Tenant
	getJSON(t, fmt.Sprintf("%s/v1/tenants/%d", base, 1), &one)
	if !reflect.DeepEqual(one, tenants[0]) {
		t.Fatalf("tenant by id diverged: %+v vs %+v", one, tenants[0])
	}

	var led ledgerReply
	getJSON(t, base+"/v1/ledger", &led)
	if !led.VerifyOK || led.Tenants != 1 {
		t.Fatalf("ledger: %+v", led)
	}

	var fl fleetReply
	getJSON(t, base+"/v1/fleet", &fl)
	if len(fl.Hosts) != 32 {
		t.Fatalf("fleet has %d hosts, want 32", len(fl.Hosts))
	}

	// Drain the tenant's first host; the reconciler (sim time advances in
	// the background loop) must evacuate it.
	postJSON(t, base+"/v1/drain", hostBody{Host: placedHosts[0]}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, fmt.Sprintf("%s/v1/tenants/%d", base, 1), &one)
		moved := one.Status == StatusPlaced
		for _, h := range one.Hosts {
			if h == placedHosts[0] {
				moved = false
			}
		}
		if moved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never evacuated the drained host: %+v", one)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var st statusReply
	getJSON(t, base+"/v1/status", &st)
	if st.Stats.Displaced == 0 || st.Stats.Replacements == 0 {
		t.Fatalf("status counters missed the evacuation: %+v", st.Stats)
	}

	resp := postJSON(t, base+"/v1/release", idBody{ID: 1}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: HTTP %d", resp.StatusCode)
	}
	getJSON(t, base+"/v1/ledger", &led)
	if !led.VerifyOK || led.Tenants != 0 {
		t.Fatalf("ledger after release: %+v", led)
	}
}

// TestDaemonRestartRecovery: stop a daemon mid-state and start a fresh
// one on the same store directory — the desired set, tenant statuses and
// ledger commitments must all reproduce.
func TestDaemonRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	d1, base1 := testDaemon(t, DaemonConfig{Seed: 1, StoreDir: dir})
	var dec Decision
	for id := int32(1); id <= 3; id++ {
		postJSON(t, base1+"/v1/admit", placement.Request{ID: id, GuaranteeBps: 1e9, VMs: 2}, &dec)
		if !dec.Accepted {
			t.Fatalf("admit %d: %+v", id, dec)
		}
	}
	postJSON(t, base1+"/v1/release", idBody{ID: 2}, nil)
	var before []Tenant
	getJSON(t, base1+"/v1/tenants", &before)
	d1.Stop()

	_, base2 := testDaemon(t, DaemonConfig{Seed: 99, StoreDir: dir})
	var after []Tenant
	getJSON(t, base2+"/v1/tenants", &after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("desired set diverged across restart:\n before %+v\n after  %+v", before, after)
	}
	var led ledgerReply
	getJSON(t, base2+"/v1/ledger", &led)
	if !led.VerifyOK || led.Tenants != 2 {
		t.Fatalf("recovered ledger: %+v", led)
	}
}

// TestServerOpenMetricsEndpoint: GET /metrics serves the registry snapshot
// in OpenMetrics text form — typed families, EOF terminator — suitable for
// a Prometheus-compatible scraper.
func TestServerOpenMetricsEndpoint(t *testing.T) {
	_, base := testDaemon(t, DaemonConfig{Seed: 1})
	var dec Decision
	postJSON(t, base+"/v1/admit", placement.Request{ID: 1, GuaranteeBps: 2e9, VMs: 2, WeightClass: 5}, &dec)
	if !dec.Accepted {
		t.Fatalf("admit: %+v", dec)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition not EOF-terminated:\n...%s", text[max(0, len(text)-120):])
	}
	for _, want := range []string{"# TYPE ", "ufab_", `entity="`} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text[:min(len(text), 400)])
		}
	}
}

// fakeHealth is a HealthSource with canned shard counters.
type fakeHealth []sim.ShardHealth

func (f fakeHealth) Health() []sim.ShardHealth { return f }

// TestAppendHealthGauges: shard counters become per-shard gauges on the
// snapshot (the daemon's engine is sequential, so the live endpoint only
// exercises the empty case — the sharded shape is pinned here).
func TestAppendHealthGauges(t *testing.T) {
	snap := telemetry.Snapshot{}
	appendHealthGauges(&snap, fakeHealth{
		{Shard: 0, WindowStalls: 3, SendSpins: 1, Seals: 40, SealNanos: 8000, RingPeak: 12},
		{Shard: 1, Seals: 40},
	})
	if len(snap.Gauges) != 10 {
		t.Fatalf("gauges = %d, want 10 (5 per shard)", len(snap.Gauges))
	}
	byName := map[string]float64{}
	for _, g := range snap.Gauges {
		byName[g.Name] = g.Value
	}
	if byName["simhealth.shard0.window_stalls"] != 3 || byName["simhealth.shard1.window_seals"] != 40 {
		t.Fatalf("gauge values wrong: %v", byName)
	}
	var buf bytes.Buffer
	if err := snap.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `ufab_window_stalls{entity="simhealth.shard0"} 3`) {
		t.Fatalf("health gauge missing from exposition:\n%s", buf.String())
	}
	// A plain engine contributes nothing.
	n := len(snap.Gauges)
	appendHealthGauges(&snap, sim.New())
	if len(snap.Gauges) != n {
		t.Fatalf("plain engine added gauges")
	}
}

// TestServerFindingsEndpoint: the findings dump responds with JSONL (the
// daemon's audited fabric usually has none this early — the endpoint must
// still answer cleanly).
func TestServerFindingsEndpoint(t *testing.T) {
	_, base := testDaemon(t, DaemonConfig{Seed: 1})
	resp, err := http.Get(base + "/v1/findings")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("findings: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("content type %q", ct)
	}
}

// TestDaemonStopAnswersInFlight: Stop shuts the HTTP server down while the
// engine loop still runs, so an admit already parked behind a busy loop
// gets its real decision — not a cut connection, not a zero-value reply —
// and a findings stream does not hold the shutdown up. ListenAndServe
// returns only once the store is closed.
func TestDaemonStopAnswersInFlight(t *testing.T) {
	d, err := NewDaemon(DaemonConfig{Addr: "127.0.0.1:0", StoreDir: t.TempDir(), Seed: 1, TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- d.ListenAndServe(ready) }()
	base := "http://" + <-ready

	stream, err := http.Get(base + "/v1/findings?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	// Occupy the loop, then park an admit behind it.
	release := make(chan struct{})
	busy := make(chan struct{})
	go d.Do(func() { close(busy); <-release })
	<-busy
	type reply struct {
		code int
		dec  Decision
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		b, _ := json.Marshal(placement.Request{ID: 1, GuaranteeBps: 1e9, VMs: 2})
		resp, err := http.Post(base+"/v1/admit", "application/json", bytes.NewReader(b))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		r := reply{code: resp.StatusCode}
		r.err = json.NewDecoder(resp.Body).Decode(&r.dec)
		got <- r
	}()
	for len(d.ops) == 0 { // the admit's op is queued behind the busy loop
		time.Sleep(time.Millisecond)
	}

	stopped := make(chan struct{})
	go func() { d.Stop(); close(stopped) }()
	<-d.draining
	select {
	case <-stopped:
		t.Fatal("Stop returned with a request still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)

	r := <-got
	if r.err != nil || r.code != http.StatusOK || !r.dec.Accepted || len(r.dec.Hosts) != 2 {
		t.Fatalf("in-flight admit: %+v", r)
	}
	select {
	case <-stopped:
	case <-time.After(shutdownGrace):
		t.Fatal("Stop is still waiting: the findings stream held the shutdown up")
	}
	if err := <-served; err != nil {
		t.Fatalf("ListenAndServe after an orderly Stop: %v", err)
	}
	if err := d.Svc.Store().Put(Tenant{ID: 2}); err == nil {
		t.Fatal("store still open after ListenAndServe returned")
	}
	if _, err := http.Get(base + "/v1/status"); err == nil {
		t.Fatal("the listener still accepts after Stop")
	}
}
