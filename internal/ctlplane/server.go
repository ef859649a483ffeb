package ctlplane

// The northbound API: stdlib net/http + JSON, one handler per resource.
// Every request body/response is a small JSON document; /v1/findings is
// JSONL (one finding per line), optionally streamed with ?follow=1. All
// state access funnels through Daemon.Do onto the engine goroutine.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ufab/internal/audit"
	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

type idBody struct {
	ID int32 `json:"id"`
}

type hostBody struct {
	Host topo.NodeID `json:"host"`
}

type statusReply struct {
	NowPS    int64          `json:"now_ps"`
	Tenants  int            `json:"tenants"`
	ByStatus map[string]int `json:"by_status"`
	Stats    Stats          `json:"stats"`
	MaxSub   float64        `json:"max_subscription"`
	StoreSeq uint64         `json:"store_seq,omitempty"`
}

type fleetReply struct {
	SlotsPerHost int             `json:"slots_per_host"`
	Hosts        []fleetHostInfo `json:"hosts"`
}

type fleetHostInfo struct {
	Host          topo.NodeID `json:"host"`
	Used          int         `json:"used"`
	ToRGroup      int         `json:"tor_group"`
	Unschedulable bool        `json:"unschedulable,omitempty"`
}

type ledgerReply struct {
	Tenants  int     `json:"tenants"`
	MaxSub   float64 `json:"max_subscription"`
	MeanSub  float64 `json:"mean_subscription"`
	VerifyOK bool    `json:"verify_ok"`
	Verify   string  `json:"verify_error,omitempty"`
}

// Handler returns the daemon's northbound HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		var rep statusReply
		d.Do(func() {
			st := d.Svc.Stats()
			rep = statusReply{
				NowPS:   int64(d.Eng.Now()),
				Tenants: st.Desired,
				Stats:   st,
				MaxSub:  d.Svc.Ledger().MaxSubscription(),
			}
			rep.ByStatus = make(map[string]int)
			for k, v := range d.Svc.StatusCounts() {
				rep.ByStatus[string(k)] = v
			}
			if s := d.Svc.Store(); s != nil {
				rep.StoreSeq = s.Seq()
			}
		})
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("POST /v1/admit", func(w http.ResponseWriter, r *http.Request) {
		var req placement.Request
		if !readJSON(w, r, &req) {
			return
		}
		var dec Decision
		d.Do(func() { dec = d.Svc.Admit(req, int64(d.Eng.Now())) })
		writeJSON(w, http.StatusOK, dec)
	})

	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		var req placement.Request
		if !readJSON(w, r, &req) {
			return
		}
		var dec Decision
		d.Do(func() { dec = d.Svc.Evaluate(req) })
		writeJSON(w, http.StatusOK, dec)
	})

	mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
		var body idBody
		if !readJSON(w, r, &body) {
			return
		}
		var ok bool
		d.Do(func() { ok = d.Svc.Release(body.ID, int64(d.Eng.Now())) })
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %d", body.ID)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"released": true})
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var list []Tenant
		d.Do(func() { list = d.Svc.TenantList() })
		writeJSON(w, http.StatusOK, list)
	})

	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad tenant id")
			return
		}
		var (
			t  Tenant
			ok bool
		)
		d.Do(func() { t, ok = d.Svc.Get(int32(id64)) })
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %d", id64)
			return
		}
		writeJSON(w, http.StatusOK, t)
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		var rep fleetReply
		d.Do(func() {
			fl := d.Svc.Fleet()
			rep.SlotsPerHost = fl.SlotsPerHost
			for i, h := range fl.Hosts {
				rep.Hosts = append(rep.Hosts, fleetHostInfo{
					Host: h, Used: fl.Used[i], ToRGroup: fl.ToRGroup[i],
					Unschedulable: fl.Unschedulable[i],
				})
			}
		})
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /v1/ledger", func(w http.ResponseWriter, r *http.Request) {
		var rep ledgerReply
		d.Do(func() {
			l := d.Svc.Ledger()
			rep = ledgerReply{
				Tenants: l.Tenants(),
				MaxSub:  l.MaxSubscription(),
				MeanSub: l.MeanSubscription(),
			}
			if err := l.Verify(); err != nil {
				rep.Verify = err.Error()
			} else {
				rep.VerifyOK = true
			}
		})
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		var body hostBody
		if !readJSON(w, r, &body) {
			return
		}
		var ok bool
		d.Do(func() { ok = d.Svc.Drain(body.Host) })
		if !ok {
			httpError(w, http.StatusNotFound, "host %d not in fleet", body.Host)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"draining": true})
	})

	mux.HandleFunc("POST /v1/uncordon", func(w http.ResponseWriter, r *http.Request) {
		var body hostBody
		if !readJSON(w, r, &body) {
			return
		}
		var ok bool
		d.Do(func() { ok = d.Svc.Uncordon(body.Host) })
		if !ok {
			httpError(w, http.StatusNotFound, "host %d not draining", body.Host)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"draining": false})
	})

	mux.HandleFunc("GET /v1/findings", func(w http.ResponseWriter, r *http.Request) {
		d.serveFindings(w, r)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf []byte
		d.Do(func() {
			snap := d.Reg.Snapshot()
			buf, _ = json.Marshal(snap)
		})
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		d.Do(func() {
			snap := d.Reg.Snapshot()
			appendHealthGauges(&snap, d.Eng)
			_ = snap.WriteOpenMetrics(&buf)
		})
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.Write(buf.Bytes())
	})

	return mux
}

// appendHealthGauges folds the simulation driver's operational shard-health
// counters (window stalls, seal latency, ring occupancy — wall-clock and
// scheduling dependent, so deliberately kept out of the deterministic
// registry) into a snapshot as extra gauges for exposition. A plain,
// unpartitioned engine reports no shards and contributes nothing.
func appendHealthGauges(snap *telemetry.Snapshot, src sim.HealthSource) {
	for _, h := range src.Health() {
		ent := fmt.Sprintf("simhealth.shard%d", h.Shard)
		snap.Gauges = append(snap.Gauges,
			telemetry.GaugeValue{Name: ent + ".window_stalls", Value: float64(h.WindowStalls)},
			telemetry.GaugeValue{Name: ent + ".send_spins", Value: float64(h.SendSpins)},
			telemetry.GaugeValue{Name: ent + ".window_seals", Value: float64(h.Seals)},
			telemetry.GaugeValue{Name: ent + ".seal_nanos", Value: float64(h.SealNanos)},
			telemetry.GaugeValue{Name: ent + ".ring_peak", Value: float64(h.RingPeak)},
		)
	}
}

// serveFindings dumps the audit log as JSONL; with ?follow=1 it keeps the
// connection open and streams findings as the auditor emits them.
func (d *Daemon) serveFindings(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	follow := r.URL.Query().Get("follow") != ""
	var ch chan audit.Finding
	var cancel func()
	if follow {
		// Subscribe before the backlog dump so nothing lands in the gap.
		ch, cancel = d.subscribeFindings()
		defer cancel()
	}
	d.Do(func() { _ = d.Audit.WriteJSONL(w) })
	if !follow {
		return
	}
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	bw := bufio.NewWriter(w)
	for {
		select {
		case f := <-ch:
			b, err := json.Marshal(map[string]any{
				"kind": f.Kind.String(), "from_ps": f.FromPS, "to_ps": f.ToPS,
				"entity": f.Entity, "vf": f.VF, "observed": f.Observed,
				"bound": f.Bound, "unit": f.Unit, "excused": f.Excused,
			})
			if err != nil {
				return
			}
			bw.Write(b)
			bw.WriteByte('\n')
			if bw.Flush() != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-d.draining:
			return
		}
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
