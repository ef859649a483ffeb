package ctlplane

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// hostileBodies are admit/evaluate bodies no honest client sends; each is
// a seed of FuzzAdmitRequest, so they run in every `go test`.
var hostileBodies = []string{
	`{"id":1,"guarantee_bps":1e9,"vms":2,"weight_class":3,"backlog_bytes":4096}`,
	`{"id":2,"guarantee_bps":1e9,"vms":67108864}`,
	`{"id":3,"guarantee_bps":1e9,"vms":2147483647}`,
	`{"id":4,"guarantee_bps":1e9,"vms":-5}`,
	`{"id":5,"guarantee_bps":1e9,"vms":2,"weight_class":99}`,
	`{"id":6,"guarantee_bps":1e9,"vms":2,"weight_class":-1}`,
	`{"id":7,"guarantee_bps":-1e9,"vms":2}`,
	`{"id":8,"guarantee_bps":1e300,"vms":2}`,
	`{"id":9,"guarantee_bps":1e9,"vms":2,"backlog_bytes":-9223372036854775808}`,
	`{"id":-2147483648,"guarantee_bps":1e9,"vms":1}`,
	`{"id":10,"guarantee_bps":1e9,"vm`,
	`{"id":4294967296,"guarantee_bps":1e9,"vms":2}`,
	`[]`,
	``,
	`{"id":11,"guarantee_bps":1e9,"vms":2,"pad":"` + strings.Repeat("x", 2<<20) + `"}`,
}

// FuzzAdmitRequest throws arbitrary bodies at POST /v1/admit and
// /v1/evaluate of one long-lived daemon. Whatever arrives, the handler
// answers 200 or 400 without panicking and the ledger still verifies
// against the admitted set. To fuzz beyond the seeds pass
// -fuzzminimizetime 2s: the corpus holds a 2 MiB body, and minimizing a
// mutation of it otherwise eats the default 60 s.
func FuzzAdmitRequest(f *testing.F) {
	for _, b := range hostileBodies {
		f.Add(true, []byte(b))
		f.Add(false, []byte(b))
	}
	d, err := NewDaemon(DaemonConfig{Seed: 1, TickEvery: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	go d.Loop()
	f.Cleanup(d.Stop)
	h := d.Handler()
	f.Fuzz(func(t *testing.T, admit bool, body []byte) {
		path := "/v1/evaluate"
		if admit {
			path = "/v1/admit"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: HTTP %d", path, body, rec.Code)
		}
		var verify error
		d.Do(func() { verify = d.Svc.Verify() })
		if verify != nil {
			t.Fatalf("%s %q: ledger no longer verifies: %v", path, body, verify)
		}
	})
}

// TestServerHugeVMCount: a VM count no fleet can hold is answered
// "placement" from the bound check alone — before any policy sizes a
// working set by it — on both the what-if and the admit path.
func TestServerHugeVMCount(t *testing.T) {
	// TickEvery an hour: nothing but the request allocates while measured.
	d, err := NewDaemon(DaemonConfig{Seed: 1, TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	go d.Loop()
	t.Cleanup(d.Stop)
	h := d.Handler()
	for _, path := range []string{"/v1/evaluate", "/v1/admit"} {
		body := []byte(`{"id":77,"guarantee_bps":1e9,"vms":1073741824}`)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"reason": "placement"`) {
			t.Fatalf("%s: HTTP %d %s, want a placement reject", path, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s: the request allocated %d bytes, want < 1 MiB", path, got)
		}
	}
}
