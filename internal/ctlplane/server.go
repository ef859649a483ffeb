package ctlplane

// The northbound API: stdlib net/http + JSON, one handler per resource.
// Every request body/response is a small JSON document; /v1/findings is
// JSONL (one finding per line), optionally streamed with ?follow=1. All
// state access funnels through Daemon.Do onto the engine goroutine; a
// request whose operation never ran (the daemon stopped first) is answered
// 503. A request body is exactly one JSON value, optionally followed by
// whitespace, of at most 1 MiB; anything else is a 400. Bodies are read
// into, and replies encoded from, pooled buffers.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

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

// The one-field replies, as structs: a map would cost an allocation and
// encoding/json's key sort per reply for the same bytes.
type (
	releasedReply struct {
		Released bool `json:"released"`
	}
	drainingReply struct {
		Draining bool `json:"draining"`
	}
	errorReply struct {
		Error string `json:"error"`
	}
)

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
		if !d.doOr503(w, func() {
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
		}) {
			return
		}
		writeJSON(w, http.StatusOK, &rep)
	})

	mux.HandleFunc("POST /v1/admit", func(w http.ResponseWriter, r *http.Request) {
		var req placement.Request
		if !readJSON(w, r, &req) {
			return
		}
		var dec Decision
		if !d.doOr503(w, func() { dec = d.Svc.Admit(req, int64(d.Eng.Now())) }) {
			return
		}
		writeJSON(w, http.StatusOK, &dec)
	})

	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		var req placement.Request
		if !readJSON(w, r, &req) {
			return
		}
		var dec Decision
		if !d.doOr503(w, func() { dec = d.Svc.Evaluate(req) }) {
			return
		}
		writeJSON(w, http.StatusOK, &dec)
	})

	mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
		var body idBody
		if !readJSON(w, r, &body) {
			return
		}
		var ok bool
		if !d.doOr503(w, func() { ok = d.Svc.Release(body.ID, int64(d.Eng.Now())) }) {
			return
		}
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %d", body.ID)
			return
		}
		writeJSON(w, http.StatusOK, &releasedReply{Released: true})
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var list []Tenant
		if !d.doOr503(w, func() { list = d.Svc.TenantList() }) {
			return
		}
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
		if !d.doOr503(w, func() { t, ok = d.Svc.Get(int32(id64)) }) {
			return
		}
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %d", id64)
			return
		}
		writeJSON(w, http.StatusOK, &t)
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		var rep fleetReply
		if !d.doOr503(w, func() {
			fl := d.Svc.Fleet()
			rep.SlotsPerHost = fl.SlotsPerHost
			for i, h := range fl.Hosts {
				rep.Hosts = append(rep.Hosts, fleetHostInfo{
					Host: h, Used: fl.Used[i], ToRGroup: fl.ToRGroup[i],
					Unschedulable: fl.Unschedulable[i],
				})
			}
		}) {
			return
		}
		writeJSON(w, http.StatusOK, &rep)
	})

	mux.HandleFunc("GET /v1/ledger", func(w http.ResponseWriter, r *http.Request) {
		var rep ledgerReply
		if !d.doOr503(w, func() {
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
		}) {
			return
		}
		writeJSON(w, http.StatusOK, &rep)
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		var body hostBody
		if !readJSON(w, r, &body) {
			return
		}
		var ok bool
		if !d.doOr503(w, func() { ok = d.Svc.Drain(body.Host) }) {
			return
		}
		if !ok {
			httpError(w, http.StatusNotFound, "host %d not in fleet", body.Host)
			return
		}
		writeJSON(w, http.StatusOK, &drainingReply{Draining: true})
	})

	mux.HandleFunc("POST /v1/uncordon", func(w http.ResponseWriter, r *http.Request) {
		var body hostBody
		if !readJSON(w, r, &body) {
			return
		}
		var ok bool
		if !d.doOr503(w, func() { ok = d.Svc.Uncordon(body.Host) }) {
			return
		}
		if !ok {
			httpError(w, http.StatusNotFound, "host %d not draining", body.Host)
			return
		}
		writeJSON(w, http.StatusOK, &drainingReply{Draining: false})
	})

	mux.HandleFunc("GET /v1/findings", func(w http.ResponseWriter, r *http.Request) {
		d.serveFindings(w, r)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf []byte
		if !d.doOr503(w, func() {
			snap := d.Reg.Snapshot()
			buf, _ = json.Marshal(snap)
		}) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if !d.doOr503(w, func() {
			snap := d.Reg.Snapshot()
			appendHealthGauges(&snap, d.Eng)
			_ = snap.WriteOpenMetrics(&buf)
		}) {
			return
		}
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.Write(buf.Bytes())
	})

	return mux
}

// doOr503 runs f on the engine goroutine through Do; when the daemon stopped
// before f could run it answers 503 and returns false.
func (d *Daemon) doOr503(w http.ResponseWriter, f func()) bool {
	if d.Do(f) {
		return true
	}
	httpError(w, http.StatusServiceUnavailable, "daemon stopping")
	return false
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
	if !d.doOr503(w, func() { _ = d.Audit.WriteJSONL(w) }) || !follow {
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

// Request and reply buffers come from pools; one that grew past
// maxPooledBuf is dropped instead, so a hostile 1 MiB body (or a large
// tenant list) does not stay resident.
const (
	maxBody      = 1 << 20
	maxPooledBuf = 64 << 10
)

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readJSON reads the whole body (at most maxBody bytes) and unmarshals it
// into v: exactly one JSON value, optionally followed by whitespace.
// Anything else is answered 400.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	if buf.Cap() <= maxPooledBuf {
		bodyBufs.Put(buf)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// replyBuf is a pooled reply: a buffer and the indenting encoder that
// writes into it.
type replyBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var replyBufs = sync.Pool{New: func() any {
	rb := new(replyBuf)
	rb.enc = json.NewEncoder(&rb.buf)
	rb.enc.SetIndent("", "  ")
	return rb
}}

// jsonContentType is every JSON reply's Content-Type value, shared so that
// setting it allocates nothing; WriteHeader copies it.
var jsonContentType = []string{"application/json"}

// writeJSON encodes v, indented, and writes it as the reply in one write.
func writeJSON(w http.ResponseWriter, code int, v any) {
	rb := replyBufs.Get().(*replyBuf)
	rb.buf.Reset()
	_ = rb.enc.Encode(v)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(rb.buf.Bytes())
	if rb.buf.Cap() <= maxPooledBuf {
		replyBufs.Put(rb)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, &errorReply{Error: fmt.Sprintf(format, args...)})
}
