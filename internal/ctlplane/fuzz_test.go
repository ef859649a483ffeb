package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ufab/internal/placement"
	"ufab/internal/topo"
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
	// A body is one JSON value, optionally followed by whitespace.
	`{"id":12,"guarantee_bps":1e9,"vms":2}{"garbage":1}`,
	`{"id":13,"guarantee_bps":1e9,"vms":2}{"garbage":1} trailing`,
	`{"id":14,"guarantee_bps":1e9,"vms":2} trailing`,
	"{\"id\":15,\"guarantee_bps\":1e9,\"vms\":2} \t\r\n ",
	"{\"id\":16,\"guarantee_bps\":1e9,\"vms\":2}\n",
	" \n",
	`null`,
	// The 1 MiB limit: exactly at it, and one byte over.
	paddedBody(17, 1<<20),
	paddedBody(18, 1<<20+1),
}

// paddedBody is an admit body of exactly n bytes, padded by a field no
// request has.
func paddedBody(id, n int) string {
	head := fmt.Sprintf(`{"id":%d,"guarantee_bps":1e9,"vms":2,"pad":"`, id)
	return head + strings.Repeat("x", n-len(head)-2) + `"}`
}

// FuzzAdmitRequest throws arbitrary bodies at POST /v1/admit and
// /v1/evaluate of one long-lived daemon. Whatever arrives, the handler
// answers without panicking, 400 exactly when json.Unmarshal rejects the
// body or it exceeds 1 MiB and 200 otherwise, and the ledger still
// verifies against the admitted set. An evaluate answered 200 carries
// exactly the indented encoding of Svc.Evaluate of the unmarshalled
// request. To fuzz beyond the seeds pass
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
		var req placement.Request
		want := http.StatusOK
		if len(body) > 1<<20 || json.Unmarshal(body, &req) != nil {
			want = http.StatusBadRequest
		}
		if rec.Code != want {
			t.Fatalf("%s %.200q: HTTP %d, want %d", path, body, rec.Code, want)
		}
		if !admit && rec.Code == http.StatusOK {
			var dec bytes.Buffer
			enc := json.NewEncoder(&dec)
			enc.SetIndent("", "  ")
			d.Do(func() { _ = enc.Encode(d.Svc.Evaluate(req)) })
			if !bytes.Equal(rec.Body.Bytes(), dec.Bytes()) {
				t.Fatalf("evaluate %.200q: reply\n%s\nwant\n%s", body, rec.Body, &dec)
			}
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

// hostileWALs are WAL bodies no store wrote, one JSON record a line without
// its CRC: FuzzStoreOpen seals them, so replay sees each record.
var hostileWALs = []string{
	`{"seq":1,"op":"put","tenant":{"id":1,"guarantee_bps":1e9,"vms":2,"status":"Placed","hosts":[0,9999]}}`,
	`{"seq":1,"op":"put","tenant":{"id":1,"guarantee_bps":-1e9,"vms":-2,"weight_class":99,"status":"Placed","hosts":[-1,-1]}}`,
	`{"seq":1,"op":"put","tenant":{"id":1,"guarantee_bps":1e300,"vms":2147483647,"status":"Placed"}}`,
	`{"seq":1,"op":"put"}`,
	`{"seq":1,"op":"frob","id":1}`,
	`{"seq":1,"op":"del","id":7}`,
	`{"seq":18446744073709551615,"op":"put","tenant":{"id":1,"guarantee_bps":1e9,"vms":1,"status":"Pending"}}` + "\n" + `{"seq":0,"op":"del","id":1}`,
	`{"seq":3,"op":"put","tenant":{"id":2,"guarantee_bps":1e9,"vms":1,"status":"Placed","hosts":[3]}}` + "\n" + `{"seq":5,"op":"del","id":2}`,
	`null`,
	`[]`,
}

// FuzzStoreOpen writes arbitrary bytes where a crashed daemon leaves its WAL
// and its snapshot. Open must return a store or an error, never panic; a
// store it returns reopens to the same tenants with nothing more to drop,
// and survives Service.Recover with a ledger that verifies. With seal set
// every WAL line that parses as a record gets its CRC, so the fuzzer reaches
// the replay behind the checksum. To fuzz beyond the seeds:
//
//	go test ./internal/ctlplane -run '^$' -fuzz FuzzStoreOpen -fuzztime 30s
func FuzzStoreOpen(f *testing.F) {
	// What a real store leaves: a snapshot, and a WAL past it.
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	st.SetSnapshotEvery(4)
	tb := topo.NewTestbed(topo.TestbedConfig{})
	for id := int32(1); id <= 5; id++ {
		st.Put(Tenant{ID: id, GuaranteeBps: 1e9, VMs: 2, Status: StatusPlaced, Hosts: tb.Servers[id : id+2]})
	}
	st.Delete(2)
	st.Close()
	wal, _ := os.ReadFile(st.walPath())
	snap, _ := os.ReadFile(st.snapPath())
	f.Add(wal, snap, false)
	f.Add(wal, []byte(nil), false)
	f.Add(wal[:len(wal)-7], snap, false) // torn final record
	f.Add(wal, snap[:len(snap)/2], false)
	f.Add([]byte("\x00\xff\n\n{"), []byte("{}"), true)
	for _, w := range hostileWALs {
		f.Add([]byte(w+"\n"), []byte(nil), true)
		f.Add([]byte(w+"\n"), []byte(`{"seq":0,"tenants":[{"id":1,"vms":-1,"status":"Placed","hosts":[1,1]},{"id":1}]}`), true)
	}

	f.Fuzz(func(t *testing.T, wal, snap []byte, seal bool) {
		if seal {
			var sealed []byte
			var enc walEncoder
			for _, line := range bytes.SplitAfter(wal, []byte("\n")) {
				var rec walRecord
				if json.Unmarshal(line, &rec) == nil {
					line, _ = enc.encode(rec.Seq, rec.Op, rec.Tenant, rec.ID)
				}
				sealed = append(sealed, line...)
			}
			wal = sealed
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		tenants, seq := st.Tenants(), st.Seq()
		st.Close()
		if st, err = Open(dir); err != nil {
			t.Fatalf("a store that opened does not reopen: %v", err)
		}
		defer st.Close()
		if again := st.Tenants(); !reflect.DeepEqual(again, tenants) || st.Seq() != seq || st.Stats().DroppedTail != 0 {
			t.Fatalf("reopening changed the store: seq %d → %d, dropped %d more lines\n got %+v\nwant %+v",
				seq, st.Seq(), st.Stats().DroppedTail, again, tenants)
		}
		if err := testService(t, st, newFakeMat()).Recover(0); err != nil {
			t.Fatalf("recover over %d tenants: %v", len(tenants), err)
		}
	})
}
