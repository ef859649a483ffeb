package ctlplane

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ufab/internal/stats"
	"ufab/internal/topo"
)

func tenant(id int32, status TenantStatus, hosts ...topo.NodeID) Tenant {
	return Tenant{
		ID: id, GuaranteeBps: 1e9 * float64(id), VMs: len(hosts),
		WeightClass: 3, Status: status, Hosts: hosts, UpdatedPS: int64(id) * 1000,
	}
}

// TestStoreRoundTrip: puts and deletes survive a close/reopen via the WAL
// alone (no snapshot).
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		tenant(1, StatusPlaced, 10, 11),
		tenant(3, StatusDegraded),
		tenant(5, StatusPlaced, 12, 13, 14),
	}
	for _, tn := range want {
		if err := s.Put(tn); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(tenant(4, StatusPlaced, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	seq := s.Seq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v\nwant %+v", got, want)
	}
	if r.Seq() != seq {
		t.Fatalf("recovered seq %d, want %d", r.Seq(), seq)
	}
	if st := r.Stats(); st.Replayed != 5 || st.DroppedTail != 0 {
		t.Fatalf("stats %+v, want 5 replayed, 0 dropped", st)
	}
}

// TestStoreSnapshotReplay: state rebuilt from snapshot + subsequent WAL
// records equals the live state, and the snapshot truncates the WAL.
func TestStoreSnapshotReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSnapshotEvery(8)
	for id := int32(1); id <= 30; id++ {
		if err := s.Put(tenant(id, StatusPlaced, topo.NodeID(id), topo.NodeID(id+100))); err != nil {
			t.Fatal(err)
		}
		if id%5 == 0 {
			if err := s.Delete(id - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := s.Tenants()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot missing after auto-checkpoint: %v", err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Tenants(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d tenants, want %d\n got %+v\nwant %+v",
			len(got), len(want), got, want)
	}
	if st := r.Stats(); st.SnapshotSeq == 0 {
		t.Fatal("recovery did not use the snapshot")
	}
}

// TestStoreCorruptTail: a torn final line, a bit-flipped record and
// trailing garbage are each detected, dropped and physically truncated;
// everything before the first bad byte survives.
func TestStoreCorruptTail(t *testing.T) {
	corruptions := map[string]func(wal []byte) []byte{
		"torn final line": func(wal []byte) []byte {
			return wal[:len(wal)-7] // chop mid-record, no trailing newline
		},
		"bit flip in last record": func(wal []byte) []byte {
			out := append([]byte(nil), wal...)
			// Flip a digit inside the last line's payload (not its CRC
			// field's own digits? any flip must fail the checksum).
			lines := bytes.Split(bytes.TrimSuffix(out, []byte{'\n'}), []byte{'\n'})
			last := lines[len(lines)-1]
			i := bytes.Index(last, []byte("guarantee_bps"))
			last[i+len("guarantee_bps\":")+1] ^= 0x01
			return out
		},
		"trailing garbage": func(wal []byte) []byte {
			return append(append([]byte(nil), wal...), []byte("{not json\n")...)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for id := int32(1); id <= 6; id++ {
				if err := s.Put(tenant(id, StatusPlaced, topo.NodeID(id))); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			walPath := filepath.Join(dir, "wal.jsonl")
			wal, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, corrupt(wal), 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery must drop the bad tail, got %v", err)
			}
			defer r.Close()
			st := r.Stats()
			if st.DroppedTail == 0 {
				t.Fatal("corrupt tail not detected")
			}
			got := r.Tenants()
			// The intact prefix must survive exactly; at most the final
			// record(s) may be gone.
			if len(got) < 5 || len(got) > 6 {
				t.Fatalf("recovered %d tenants, want 5 or 6", len(got))
			}
			for i, tn := range got {
				if want := tenant(int32(i+1), StatusPlaced, topo.NodeID(i+1)); !reflect.DeepEqual(tn, want) {
					t.Fatalf("tenant %d corrupted: %+v", i+1, tn)
				}
			}
			// The file must have been truncated at the first bad byte —
			// a second reopen sees a clean log.
			r2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if st2 := r2.Stats(); st2.DroppedTail != 0 {
				t.Fatalf("tail not physically truncated: %+v", st2)
			}
			if !reflect.DeepEqual(r2.Tenants(), got) {
				t.Fatal("second recovery diverged from first")
			}
		})
	}
}

// TestStoreAppendAfterRecovery: the store keeps accepting writes after a
// tail-drop recovery, and those writes persist.
func TestStoreAppendAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for id := int32(1); id <= 3; id++ {
		if err := s.Put(tenant(id, StatusPlaced, topo.NodeID(id))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	walPath := filepath.Join(dir, "wal.jsonl")
	wal, _ := os.ReadFile(walPath)
	os.WriteFile(walPath, wal[:len(wal)-3], 0o644) // tear the tail

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(tenant(9, StatusPending)); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Get(9); !ok {
		t.Fatal("post-recovery write lost")
	}
	if st := r2.Stats(); st.DroppedTail != 0 {
		t.Fatalf("clean log flagged corrupt: %+v", st)
	}
}

// referenceWALLine is the WAL line as the store built it before it encoded
// in place: the record marshalled with CRC 0, checksummed, marshalled again
// with the CRC, plus '\n'. TestWALLineUnchanged holds the store to it.
func referenceWALLine(rec walRecord) ([]byte, error) {
	rec.CRC = 0
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	rec.CRC = crc32.ChecksumIEEE(b)
	b, err = json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestWALLineUnchanged: the store's one-pass line encoder writes exactly
// the bytes of the two-marshal reference, for random put and del records
// and the edges — seq 0 and MaxUint64, zero and negative ids, nil, empty
// and long host lists, strings with <>&, quotes and non-ASCII — and replay
// accepts every line. A non-finite guarantee is still an encode error.
func TestWALLineUnchanged(t *testing.T) {
	edges := []walRecord{
		{Seq: 0, Op: "del", ID: 0},
		{Seq: math.MaxUint64, Op: "del", ID: -1},
		{Seq: math.MaxUint64, Op: "del", ID: math.MinInt32},
		{Seq: 1, Op: "put", Tenant: &Tenant{}},
		{Seq: 2, Op: "put", Tenant: &Tenant{ID: -7, Hosts: []topo.NodeID{}}},
		{Seq: 3, Op: "put", Tenant: &Tenant{ID: 1, Status: `<a href="x">&'</a>`, Hosts: []topo.NodeID{-1, 0, math.MaxInt32}}},
		{Seq: 4, Op: "put", Tenant: &Tenant{ID: 2, Status: "Placéd   \U0001F600 \x00\x7f\"\\"}},
		{Seq: 5, Op: `op "quoted" <&>`, ID: 9},
		{Seq: 6, Op: "put", Tenant: &Tenant{ID: math.MaxInt32, GuaranteeBps: math.MaxFloat64, VMs: math.MinInt,
			BacklogBytes: math.MinInt64, NotBeforePS: math.MaxInt64, UpdatedPS: -1, Retries: -3}},
		{Seq: 7, Op: "put", Tenant: &Tenant{ID: 3, GuaranteeBps: math.SmallestNonzeroFloat64}},
		{Seq: 8, Op: "put", Tenant: &Tenant{ID: 4, GuaranteeBps: math.Copysign(0, -1), Hosts: make([]topo.NodeID, 4096)}},
	}
	rng := stats.NewRand(39)
	statuses := []TenantStatus{StatusPending, StatusPlaced, StatusDegraded, StatusEvicted, "", "<&>"}
	recs := append([]walRecord(nil), edges...)
	for i := 0; i < 2000; i++ {
		rec := walRecord{Seq: rng.Uint64() >> uint(rng.Intn(64)), Op: "del", ID: int32(rng.Uint32())}
		if rng.Intn(3) > 0 {
			hosts := make([]topo.NodeID, rng.Intn(40))
			for j := range hosts {
				hosts[j] = topo.NodeID(rng.Int31n(1<<20) - 8)
			}
			if rng.Intn(5) == 0 {
				hosts = nil
			}
			rec = walRecord{Seq: rec.Seq, Op: "put", Tenant: &Tenant{
				ID: rec.ID, GuaranteeBps: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-10)),
				VMs: rng.Intn(9) - 1, WeightClass: rng.Intn(12) - 1, BacklogBytes: rng.Int63() >> uint(rng.Intn(63)),
				Status: statuses[rng.Intn(len(statuses))], Hosts: hosts, Retries: rng.Intn(4),
				NotBeforePS: rng.Int63n(1 << 40), UpdatedPS: rng.Int63() - rng.Int63(),
			}}
		}
		recs = append(recs, rec)
	}
	var enc walEncoder
	for i, rec := range recs {
		want, err := referenceWALLine(rec)
		if err != nil {
			t.Fatalf("record %d: reference: %v", i, err)
		}
		got, err := enc.encode(rec.Seq, rec.Op, rec.Tenant, rec.ID)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: line differs\n got %s\nwant %s", i, got, want)
		}
		back, ok := decodeWALRecord(got[:len(got)-1])
		if !ok {
			t.Fatalf("record %d: replay rejects %s", i, got)
		}
		if line, _ := referenceWALLine(back); !bytes.Equal(line, want) {
			t.Fatalf("record %d: replay decodes %+v from %s", i, back, got)
		}
	}
	for _, g := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := referenceWALLine(walRecord{Op: "put", Tenant: &Tenant{GuaranteeBps: g}})
		if _, err := enc.encode(1, "put", &Tenant{GuaranteeBps: g}, 0); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("guarantee %v: encode error %v, want %v", g, err, want)
		}
	}
	// After a failed encode the next line is whole again.
	want, _ := referenceWALLine(edges[2])
	if got, _ := enc.encode(edges[2].Seq, edges[2].Op, nil, edges[2].ID); !bytes.Equal(got, want) {
		t.Fatalf("after an encode error: %s, want %s", got, want)
	}
}

// TestWALAppendAllocs: appending a put or a del builds its line in the
// store's own buffer and writes it from there; neither the record, nor the
// tenant, nor the line is allocated. (A put allocated 5 objects and a del
// 4 when the line came from two json.Marshal calls.) encoding/json pools
// its encoder state, so under the race detector the count means nothing.
func TestWALAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetSnapshotEvery(1 << 30) // a checkpoint is not an append
	tn := tenant(7, StatusPlaced, 10, 11, 12)
	if err := s.Put(tn); err != nil { // the map slot, the buffer, the encoder
		t.Fatal(err)
	}
	for _, c := range []struct {
		op  string
		run func() error
	}{
		{"put", func() error { return s.Put(tn) }},
		{"del", func() error { return s.Delete(8) }},
	} {
		if a := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); a > 0 {
			t.Errorf("a WAL append of a %s allocates %.1f objects, want 0", c.op, a)
		}
	}
}
