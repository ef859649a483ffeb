package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"ufab/internal/ctlplane"
	"ufab/internal/sim"
)

// ctlRing is how many admitted tenants ctl_churn keeps standing; the
// oldest is released when the ring overflows.
const ctlRing = 12

// ctlQuantumEvery and ctlQuantum: every 256 decisions the harness advances
// the daemon's engine by 250 µs of simulated time, so the realised half of
// the control plane (probe handshakes of new pairs, sampling, auditor,
// reconciler) is paid inside the request loop at fixed points.
const (
	ctlQuantumEvery = 256
	ctlQuantum      = 250 * sim.Microsecond
)

// ctlRequest is the wire form of /v1/admit and /v1/evaluate.
type ctlRequest struct {
	ID           int32   `json:"id"`
	GuaranteeBps float64 `json:"guarantee_bps"`
	VMs          int     `json:"vms"`
	WeightClass  int     `json:"weight_class"`
	BacklogBytes int64   `json:"backlog_bytes"`
}

// ctlClient is ctl_churn's single closed-loop keep-alive client.
type ctlClient struct {
	base   string
	http   *http.Client
	tr     *tracer
	buf    bytes.Buffer
	failed int
	sent   int
}

// post sends one JSON request and decodes the reply into out (if non-nil).
// It returns the client-observed latency. Transport errors and non-2xx
// statuses are counted as failed operations.
func (c *ctlClient) post(op string, id int32, body, out any) time.Duration {
	sp := c.tr.beginArg("http."+op, strconv.Itoa(int(id)))
	defer c.tr.end(sp)
	c.sent++
	c.buf.Reset()
	if err := json.NewEncoder(&c.buf).Encode(body); err != nil {
		panic(err) // fixed structs of numbers always encode
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/"+op, "application/json", &c.buf)
	if err != nil {
		c.failed++
		return time.Since(t0)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil || resp.StatusCode/100 != 2 {
		c.failed++
		return lat
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.failed++
		}
	}
	return lat
}

// runCtlChurn runs one repetition of ctl_churn against a fresh daemon and
// store directory: a closed loop of evaluate/admit/release decisions over
// loopback HTTP, with simulated time driven by the harness.
func runCtlChurn(sc scale, seed int64, tr *tracer, start time.Time) repResult {
	r := repResult{Exact: map[string]float64{}, Wall: map[string]float64{}}

	dir, err := os.MkdirTemp(".", ".ufab-bench-store-")
	if err != nil {
		panic(fmt.Sprintf("bench: store directory: %v", err))
	}
	defer os.RemoveAll(dir)

	sp := tr.begin("ctlplane.new_daemon")
	// TickEvery is an hour so the wall ticker never fires: the harness
	// advances simulated time itself, which fixes the op/sim interleaving.
	d, err := ctlplane.NewDaemon(ctlplane.DaemonConfig{StoreDir: dir, Seed: seed, TickEvery: time.Hour})
	if err != nil {
		panic(fmt.Sprintf("bench: NewDaemon: %v", err))
	}
	tr.end(sp)
	sp = tr.begin("http.listen")
	go d.Loop()
	srv := httptest.NewServer(d.Handler())
	c := &ctlClient{base: srv.URL, tr: tr, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	tr.end(sp)

	rng := rand.New(rand.NewSource(seed + 29))
	guarantees := []float64{0.2e9, 0.5e9, 1e9}
	var ring []int32
	var admitUs []float64
	var advanceNs []float64
	var admits, rejects, releases int
	nextID := int32(1)
	decisions, nextQuantum := 0, ctlQuantumEvery

	m0 := readMem()
	t0 := time.Now()
	r.SetupS = t0.Sub(start).Seconds()
	cpu0 := cpuSeconds()
	for decisions < sc.Decisions {
		req := ctlRequest{ID: nextID, GuaranteeBps: guarantees[rng.Intn(len(guarantees))],
			VMs: 2 + rng.Intn(3), WeightClass: 3, BacklogBytes: 4096}
		nextID++
		if rng.Intn(4) == 0 {
			c.post("evaluate", req.ID, req, nil)
			decisions++
		}
		var dec ctlplane.Decision
		admitUs = append(admitUs, float64(c.post("admit", req.ID, req, &dec).Nanoseconds())/1e3)
		decisions++
		if dec.Accepted {
			admits++
			ring = append(ring, req.ID)
		} else {
			rejects++
		}
		if len(ring) > ctlRing {
			c.post("release", ring[0], map[string]int32{"id": ring[0]}, nil)
			ring = ring[1:]
			releases++
			decisions++
		}
		if decisions >= nextQuantum {
			nextQuantum += ctlQuantumEvery
			s := tr.begin("daemon.advance")
			ta := time.Now()
			d.Do(func() { d.Eng.RunUntil(d.Eng.Now() + ctlQuantum) })
			advanceNs = append(advanceNs, float64(time.Since(ta).Nanoseconds()))
			tr.end(s)
		}
	}
	r.JobS = time.Since(t0).Seconds()
	r.JobCPUS = cpuSeconds() - cpu0
	r.JobAllocMB = float64(readMem().allocBytes-m0.allocBytes) / (1 << 20)
	r.LiveRSSMB = liveRSSMiB()

	// Drain the ring, then check that nothing is left anywhere.
	for _, id := range ring {
		c.post("release", id, map[string]int32{"id": id}, nil)
		releases++
	}
	sp = tr.begin("svc.verify")
	var verifyErr error
	var tenants int
	var st ctlplane.Stats
	var events uint64
	d.Do(func() {
		verifyErr = d.Svc.Verify()
		tenants = d.Svc.Ledger().Tenants()
		st = d.Svc.Stats()
		events = d.Eng.Stats().Processed
	})
	tr.end(sp)
	srv.Close()
	c.http.CloseIdleConnections()
	d.Stop() // snapshots and closes the store

	if verifyErr != nil {
		r.failf("ctl_churn: Svc.Verify after drain: %v", verifyErr)
	}
	if tenants != 0 {
		r.failf("ctl_churn: %d tenants left in the ledger after drain", tenants)
	}
	sp = tr.begin("store.reopen")
	reopened, err := ctlplane.Open(dir)
	if err != nil {
		r.failf("ctl_churn: reopening the closed store: %v", err)
	} else {
		if n := reopened.Len(); n != 0 {
			r.failf("ctl_churn: reopened store replays to %d records, want 0", n)
		}
		reopened.Close()
	}
	tr.end(sp)
	if int64(admits) != st.Admitted || int64(rejects) != st.Rejected || int64(releases) != st.Released {
		r.failf("ctl_churn: client saw %d/%d/%d admits/rejects/releases, service counted %d/%d/%d",
			admits, rejects, releases, st.Admitted, st.Rejected, st.Released)
	}
	// Failed operations: requests that failed plus post-run checks that did.
	r.Attempted = c.sent
	r.Failed = c.failed + len(r.Checks)
	if c.failed > 0 {
		r.failf("ctl_churn: %d of %d requests failed (transport error or non-2xx)", c.failed, c.sent)
	}

	r.AdmitUs = admitUs
	r.Digest = digest{Events: events, Completed: int64(admits), Drops: d.UF.Net.TotalDrops}
	r.Exact["sim.events"] = float64(events)
	r.Exact["ctlplane.admits"] = float64(admits)
	r.Exact["ctlplane.rejects"] = float64(rejects)
	r.Exact["ctlplane.releases"] = float64(releases)
	r.Exact["ctlplane.decisions"] = float64(decisions)
	r.Wall["decisions_per_s"] = float64(decisions) / r.JobS
	if len(advanceNs) > 0 {
		sum := 0.0
		for _, ns := range advanceNs {
			sum += ns
		}
		r.Wall["ctlplane.daemon.advance_ms"] = median(advanceNs) / 1e6
		r.Wall["ctlplane.daemon.sim_share_pct"] = sum / 1e9 / r.JobS * 100
		r.Wall["sim_us_per_wall_s"] = float64(len(advanceNs)) * ctlQuantum.Micros() / r.JobS
	}
	return r
}
