package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"ufab/internal/placement"
	"ufab/internal/topo"
)

// TenantStatus is the reconciler's per-tenant state machine.
type TenantStatus string

const (
	// StatusPending: desired but never realized (admission accepted the
	// intent, placement has not happened yet).
	StatusPending TenantStatus = "Pending"
	// StatusPlaced: realized — hosts assigned, ledger committed, fabric
	// materialized.
	StatusPlaced TenantStatus = "Placed"
	// StatusDegraded: was Placed, lost a host (failure or drain); realized
	// state has been torn down and the reconciler is re-placing it.
	StatusDegraded TenantStatus = "Degraded"
	// StatusEvicted: the retry budget ran out; the tenant keeps its record
	// (operators can see why it's gone) but holds no resources.
	StatusEvicted TenantStatus = "Evicted"
)

// Tenant is one desired-state record: what the tenant asked for, plus the
// reconciler's view of how far reality has converged. It is the unit of
// persistence — every transition is a WAL record.
type Tenant struct {
	ID           int32        `json:"id"`
	GuaranteeBps float64      `json:"guarantee_bps"`
	VMs          int          `json:"vms"`
	WeightClass  int          `json:"weight_class"`
	BacklogBytes int64        `json:"backlog_bytes,omitempty"`
	Status       TenantStatus `json:"status"`
	// Hosts is the realized placement (Placed only).
	Hosts []topo.NodeID `json:"hosts,omitempty"`
	// Retries counts failed re-placement attempts since the tenant left
	// Placed; NotBeforePS is the backoff gate on the next attempt.
	Retries     int   `json:"retries,omitempty"`
	NotBeforePS int64 `json:"not_before_ps,omitempty"`
	UpdatedPS   int64 `json:"updated_ps,omitempty"`
}

// request is what the tenant asked for, in the admission transaction's
// terms.
func (t *Tenant) request() placement.Request {
	return placement.Request{
		ID:           t.ID,
		GuaranteeBps: t.GuaranteeBps,
		VMs:          t.VMs,
		WeightClass:  t.WeightClass,
		BacklogBytes: t.BacklogBytes,
	}
}

// walRecord is one WAL line. CRC is crc32-IEEE over the record's JSON
// encoding with CRC set to zero, so a torn or bit-flipped tail line is
// detected on replay.
type walRecord struct {
	Seq    uint64  `json:"seq"`
	Op     string  `json:"op"` // "put" | "del"
	Tenant *Tenant `json:"tenant,omitempty"`
	ID     int32   `json:"id,omitempty"`
	CRC    uint32  `json:"crc"`
}

// storeSnapshot is the periodic full-state checkpoint. Seq is the last
// WAL sequence folded in: replay skips records at or below it.
type storeSnapshot struct {
	Seq     uint64   `json:"seq"`
	Tenants []Tenant `json:"tenants"`
}

// StoreStats reports what recovery found.
type StoreStats struct {
	// SnapshotSeq is the checkpoint the state was rebuilt from (0 = none).
	SnapshotSeq uint64
	// Replayed is how many WAL records were applied on top.
	Replayed int
	// DroppedTail is how many trailing WAL lines were discarded as torn
	// or corrupt (they are physically truncated away).
	DroppedTail int
}

// Store persists the control plane's desired tenant state: an append-only
// JSONL write-ahead log plus a periodic snapshot, both plain files in one
// directory. Every Put/Delete appends one CRC-protected record; every
// SnapshotEvery records the full state is checkpointed atomically
// (tmp+rename) and the WAL truncated. Open replays snapshot+WAL,
// dropping a torn or corrupt tail — the crash-recovery contract the
// daemon's restart path builds on.
type Store struct {
	dir string

	mu       sync.Mutex
	tenants  map[int32]Tenant
	wal      *os.File
	seq      uint64 // last sequence written (or recovered)
	snapSeq  uint64 // last sequence folded into the snapshot
	pending  int    // WAL records since the last snapshot
	stats    StoreStats
	snapshot int // SnapshotEvery, resolved
	line     walEncoder
}

// DefaultSnapshotEvery is how many WAL records accumulate before an
// automatic checkpoint.
const DefaultSnapshotEvery = 256

func (s *Store) walPath() string  { return filepath.Join(s.dir, "wal.jsonl") }
func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Open opens (creating if absent) the store in dir and recovers its
// state: snapshot first, then every intact WAL record above the
// snapshot's sequence. The first torn or corrupt WAL line and everything
// after it are discarded and physically truncated.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ctlplane: store: %w", err)
	}
	s := &Store{dir: dir, tenants: make(map[int32]Tenant), snapshot: DefaultSnapshotEvery}

	if b, err := os.ReadFile(s.snapPath()); err == nil {
		var snap storeSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return nil, fmt.Errorf("ctlplane: store: corrupt snapshot: %w", err)
		}
		s.seq, s.snapSeq = snap.Seq, snap.Seq
		s.stats.SnapshotSeq = snap.Seq
		for _, t := range snap.Tenants {
			s.tenants[t.ID] = t
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("ctlplane: store: %w", err)
	}

	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: store: %w", err)
	}
	s.wal = wal
	return s, nil
}

// replayWAL applies intact records and truncates the file at the first
// bad line (torn write, CRC mismatch, non-monotonic sequence).
func (s *Store) replayWAL() error {
	data, err := os.ReadFile(s.walPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	valid := 0 // byte offset of the end of the last intact line
	off := 0
	prev := uint64(0)
	first := true
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final line — no newline made it to disk
		}
		line := data[off : off+nl]
		rec, ok := decodeWALRecord(line)
		if !ok {
			break
		}
		if !first && rec.Seq != prev+1 {
			break // sequence gap or replay: the tail is not trustworthy
		}
		first, prev = false, rec.Seq
		if rec.Seq > s.snapSeq {
			switch rec.Op {
			case "put":
				if rec.Tenant == nil {
					return fmt.Errorf("ctlplane: store: put record %d without tenant", rec.Seq)
				}
				s.tenants[rec.Tenant.ID] = *rec.Tenant
			case "del":
				delete(s.tenants, rec.ID)
			default:
				return fmt.Errorf("ctlplane: store: record %d unknown op %q", rec.Seq, rec.Op)
			}
			s.stats.Replayed++
			s.pending++
		}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		off += nl + 1
		valid = off
	}
	if valid < len(data) {
		s.stats.DroppedTail = 1 + bytes.Count(data[valid:], []byte{'\n'})
		if err := os.Truncate(s.walPath(), int64(valid)); err != nil {
			return fmt.Errorf("ctlplane: store: truncating corrupt tail: %w", err)
		}
	}
	return nil
}

// walEncoder builds WAL lines in a buffer it owns, so an append
// allocates nothing; it encodes its own copy of the record and tenant.
type walEncoder struct {
	buf    bytes.Buffer
	enc    *json.Encoder
	rec    walRecord
	tenant Tenant
}

// encode returns the WAL line of the record (seq, op, t, id), valid until
// the next call. The record is encoded once with CRC 0, the checksum is
// taken over those bytes, and its digits replace the trailing 0: crc is
// the last field and never omitted, so the line equals json.Marshal of
// the record with its CRC set, plus '\n'. The fields come apart so that t
// is only read: a caller's tenant stays on its stack.
func (e *walEncoder) encode(seq uint64, op string, t *Tenant, id int32) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.rec = walRecord{Seq: seq, Op: op, ID: id}
	if t != nil {
		e.tenant = *t
		e.rec.Tenant = &e.tenant
	}
	e.buf.Reset()
	if err := e.enc.Encode(&e.rec); err != nil {
		return nil, err
	}
	b := e.buf.Bytes() // {…,"crc":0}\n
	crc := crc32.ChecksumIEEE(b[:len(b)-1])
	e.buf.Truncate(len(b) - len("0}\n"))
	e.buf.Write(strconv.AppendUint(e.buf.AvailableBuffer(), uint64(crc), 10))
	e.buf.WriteString("}\n")
	return e.buf.Bytes(), nil
}

func decodeWALRecord(line []byte) (walRecord, bool) {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, false
	}
	want := rec.CRC
	rec.CRC = 0
	b, err := json.Marshal(rec)
	if err != nil || crc32.ChecksumIEEE(b) != want {
		return rec, false
	}
	rec.CRC = want
	return rec, true
}

// Put records the tenant's current desired/realized state.
func (s *Store) Put(t Tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked("put", &t, 0); err != nil {
		return err
	}
	s.tenants[t.ID] = t
	return s.maybeSnapshotLocked()
}

// Delete removes the tenant's record (release).
func (s *Store) Delete(id int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked("del", nil, id); err != nil {
		return err
	}
	delete(s.tenants, id)
	return s.maybeSnapshotLocked()
}

func (s *Store) appendLocked(op string, t *Tenant, id int32) error {
	b, err := s.line.encode(s.seq+1, op, t, id)
	if err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	if _, err := s.wal.Write(b); err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	s.seq++
	s.pending++
	return nil
}

func (s *Store) maybeSnapshotLocked() error {
	if s.pending < s.snapshot {
		return nil
	}
	return s.snapshotLocked()
}

// Snapshot forces a checkpoint: the full state is written atomically and
// the WAL truncated.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	snap := storeSnapshot{Seq: s.seq, Tenants: s.tenantsLocked()}
	b, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	tmp := s.snapPath() + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	s.snapSeq = s.seq
	// The snapshot now covers every WAL record; recycle the log. A crash
	// between rename and truncate is safe: replay skips seq ≤ snapSeq.
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ctlplane: store: %w", err)
	}
	s.wal = wal
	s.pending = 0
	return nil
}

// SetSnapshotEvery overrides the automatic checkpoint threshold (n ≤ 0
// restores the default).
func (s *Store) SetSnapshotEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = DefaultSnapshotEvery
	}
	s.snapshot = n
}

func (s *Store) tenantsLocked() []Tenant {
	out := make([]Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tenants returns every record, sorted by id.
func (s *Store) Tenants() []Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantsLocked()
}

// Get returns one record.
func (s *Store) Get(id int32) (Tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	return t, ok
}

// Len returns the record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Seq returns the last WAL sequence written or recovered.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Stats reports what recovery found when the store was opened.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close flushes nothing (writes are unbuffered appends) and releases the
// WAL handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
