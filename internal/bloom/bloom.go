// Package bloom implements the two-memory-bank, 2-way hashed structure
// μFAB-C uses to recognize active VM-pairs on a link (§3.6, §4.2).
//
// On Tofino the structure is a pair of register arrays indexed by two
// independent hashes: each slot holds a short fingerprint plus the VM-pair's
// last-reported token φ and sending window w, so the switch can maintain
// the per-link aggregates Φ_l and W_l incrementally (adding the delta when
// a VM-pair's demand changes, subtracting on a finish probe, and expiring
// entries that have been silent for a cleanup period). A hash collision in
// both banks behaves exactly like the paper's Bloom-filter false positive:
// the VM-pair is omitted, so Φ_l and W_l under-count slightly — which §3.6
// argues is digested by the 5% capacity headroom and migration.
//
// The table is a sparse model of those register arrays. A switch has the
// SRAM whether or not a slot is ever written; a simulation holds one table
// per egress link of the fabric (thousands), each carrying a handful of
// VM-pairs, so zeroing the paper's full 2 × 16384 slots (768 KiB) per link
// was 90 % of all bytes a 1024-host run allocated. Each bank is therefore a
// directory of fixed-size bucket pages allocated on the first insert that
// lands in them; a lookup in an absent page reads as empty. Hashes,
// fingerprints, bucket choice, collisions, counters and every returned delta
// are those of the dense array — bloom_test.go keeps the dense layout as the
// reference model and checks the two against each other operation by
// operation.
package bloom

import "fmt"

// entry is the per-slot payload.
type entry struct {
	fp       uint16 // fingerprint; 0 means empty
	phi      uint32
	window   uint32
	lastSeen int64
}

// bucketWidth is the number of entry slots per bucket. Two slots per
// bucket keeps the omission rate below the paper's 5% target at the
// paper's 20K-VM-pair load.
const bucketWidth = 2

type bucket [bucketWidth]entry

// pageBuckets is the number of buckets per lazily allocated page (a power
// of two): a page is 768 B and a 16384-slot bank's directory 4 KiB. On a
// sparsely used table nearly every new VM-pair lands on a page of its own,
// so smaller pages waste fewer empty buckets but double the directory with
// each halving. Chosen by measurement — job_alloc_mb of the benchmark's
// fabric1k_backlog / clos128_rpc / ctl_churn workloads at 4, 8, 16, 32 and
// 64 buckets (seed 1): 87/101/241, 74/98/247, 72/101/256, 78/109/265 and
// 96/126/271 MiB. 16 is the minimum on the headline fabric; 8 is within
// 4 % of it on all three.
const pageBuckets = 16

type page [pageBuckets]bucket

// Table is the 2-way hashed active-VM-pair table. Create one with New.
type Table struct {
	// banks[b] is bank b's page directory, nil until the first insert into
	// the bank; banks[b][i] holds its buckets [i*pageBuckets,
	// (i+1)*pageBuckets), nil until the first insert into one of them.
	banks [2][]*page
	mask  uint64
	// Collisions counts Update calls rejected because both candidate
	// slots were held by other keys (the false-positive analogue).
	Collisions uint64
	// Occupied counts live entries.
	Occupied int
}

// New returns a table with the given number of slots per bank, rounded up
// to a power of two. Paper configuration: a 20 KB filter ≈ 2 banks × 10K
// slots supports 20K distinct VM-pairs with <5% collision rate. No bucket
// memory is allocated here; directories and pages follow the inserts.
func New(slotsPerBank int) *Table {
	if slotsPerBank < 1 {
		panic(fmt.Sprintf("bloom: slotsPerBank %d < 1", slotsPerBank))
	}
	n := 1
	for n*bucketWidth < slotsPerBank {
		n <<= 1
	}
	return &Table{mask: uint64(n - 1)}
}

// SlotsPerBank returns the (rounded) per-bank slot capacity.
func (t *Table) SlotsPerBank() int { return int(t.mask+1) * bucketWidth }

func mix(x, c uint64) uint64 {
	x += c
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Table) slots(key uint64) (i0, i1 uint64, fp uint16) {
	i0 = mix(key, 0x9e3779b97f4a7c15) & t.mask
	i1 = mix(key, 0xd1b54a32d192ed03) & t.mask
	fp = uint16(mix(key, 0x2545f4914f6cdd1d))
	if fp == 0 {
		fp = 1
	}
	return
}

// find returns the key's entry in either bank, or nil. A bucket whose page
// was never allocated reads as empty.
func (t *Table) find(i0, i1 uint64, fp uint16) *entry {
	for b, i := range [2]uint64{i0, i1} {
		dir := t.banks[b]
		if i/pageBuckets >= uint64(len(dir)) || dir[i/pageBuckets] == nil {
			continue
		}
		bk := &dir[i/pageBuckets][i%pageBuckets]
		for s := range bk {
			if bk[s].fp == fp {
				return &bk[s]
			}
		}
	}
	return nil
}

// Update records that the VM-pair identified by key reported token phi and
// window w at time now (simulation picoseconds). It returns the deltas the
// caller must apply to the link's Φ and W registers. ok is false when both
// candidate slots are occupied by other keys; the entry is then omitted and
// the deltas are zero.
func (t *Table) Update(key uint64, phi, w uint32, now int64) (dPhi, dW int64, ok bool) {
	i0, i1, fp := t.slots(key)
	if e := t.find(i0, i1, fp); e != nil {
		dPhi = int64(phi) - int64(e.phi)
		dW = int64(w) - int64(e.window)
		e.phi, e.window, e.lastSeen = phi, w, now
		return dPhi, dW, true
	}
	// Empty slot? Bank 0 first; an insert allocates the directory and the
	// page it lands in if they do not exist yet.
	for b, i := range [2]uint64{i0, i1} {
		if t.banks[b] == nil {
			t.banks[b] = make([]*page, (t.mask+pageBuckets)/pageBuckets)
		}
		pg := t.banks[b][i/pageBuckets]
		if pg == nil {
			pg = new(page)
			t.banks[b][i/pageBuckets] = pg
		}
		bk := &pg[i%pageBuckets]
		for s := range bk {
			if bk[s].fp == 0 {
				bk[s] = entry{fp: fp, phi: phi, window: w, lastSeen: now}
				t.Occupied++
				return int64(phi), int64(w), true
			}
		}
	}
	t.Collisions++
	return 0, 0, false
}

// Remove deletes the VM-pair's entry (finish probe, §3.6), returning the
// register deltas (negative) and whether an entry was found.
func (t *Table) Remove(key uint64) (dPhi, dW int64, ok bool) {
	e := t.find(t.slots(key))
	if e == nil {
		return 0, 0, false
	}
	dPhi, dW = -int64(e.phi), -int64(e.window)
	*e = entry{}
	t.Occupied--
	return dPhi, dW, true
}

// Contains reports whether the key currently has an entry.
func (t *Table) Contains(key uint64) bool {
	return t.find(t.slots(key)) != nil
}

// Expire removes every entry whose lastSeen is strictly older than cutoff
// (the silent-quit cleanup μFAB-C runs every 10 s). It returns the summed
// register deltas (≤ 0) and the number of entries expired.
func (t *Table) Expire(cutoff int64) (dPhi, dW int64, n int) {
	return t.removeIf(func(e *entry) bool { return e.lastSeen < cutoff })
}

// Drain removes every entry, returning the summed register deltas (≤ 0)
// and the number of entries removed.
func (t *Table) Drain() (dPhi, dW int64, n int) {
	return t.removeIf(func(*entry) bool { return true })
}

// removeIf walks the allocated pages and removes every live entry stale
// selects, returning the summed register deltas and the count.
func (t *Table) removeIf(stale func(*entry) bool) (dPhi, dW int64, n int) {
	if t.Occupied == 0 {
		return 0, 0, 0
	}
	for b := range t.banks {
		for _, pg := range t.banks[b] {
			if pg == nil {
				continue
			}
			for i := range pg {
				for s := range pg[i] {
					e := &pg[i][s]
					if e.fp != 0 && stale(e) {
						dPhi -= int64(e.phi)
						dW -= int64(e.window)
						*e = entry{}
						t.Occupied--
						n++
					}
				}
			}
		}
	}
	return dPhi, dW, n
}

// LoadFactor returns occupied slots over total slots.
func (t *Table) LoadFactor() float64 {
	return float64(t.Occupied) / float64(2*(t.mask+1)*bucketWidth)
}

// Reset clears all entries and counters and releases the bucket pages.
func (t *Table) Reset() {
	for b := range t.banks {
		clear(t.banks[b])
	}
	t.Occupied = 0
	t.Collisions = 0
}

// Rotating is the timing-Bloom-filter variant §3.6 points to: two epoch
// tables alternate, so expiring silent VM-pairs is a table swap instead of
// a timestamp scan, and an entry's staleness is bounded by two epochs. A
// VM-pair seen in the previous epoch is carried into the current one on
// its next probe.
type Rotating struct {
	cur, prev *Table
	// Collisions counts rejected updates (as Table.Collisions).
	Collisions uint64
}

// NewRotating returns a rotating filter whose two epoch tables each have
// the given per-bank slot count.
func NewRotating(slotsPerBank int) *Rotating {
	return &Rotating{cur: New(slotsPerBank), prev: New(slotsPerBank)}
}

// Update records the VM-pair in the current epoch, migrating it from the
// previous epoch if present there. Register deltas follow the same
// contract as Table.Update.
func (r *Rotating) Update(key uint64, phi, w uint32, now int64) (dPhi, dW int64, ok bool) {
	if pPhi, pW, found := r.prev.Remove(key); found {
		// Migrate: the registers already contain the old contribution.
		d1, d2, ok := r.cur.Update(key, phi, w, now)
		if !ok {
			// No room in the current epoch: the pair is dropped, so
			// its old contribution leaves the registers.
			r.Collisions++
			return pPhi, pW, false
		}
		// cur.Update returned +phi/+w (fresh insert); combined with the
		// -old from prev.Remove the caller sees the net change.
		return d1 + pPhi, d2 + pW, ok
	}
	dPhi, dW, ok = r.cur.Update(key, phi, w, now)
	if !ok {
		r.Collisions++
	}
	return dPhi, dW, ok
}

// Remove deletes the VM-pair from whichever epoch holds it.
func (r *Rotating) Remove(key uint64) (dPhi, dW int64, ok bool) {
	if d1, d2, found := r.cur.Remove(key); found {
		return d1, d2, true
	}
	return r.prev.Remove(key)
}

// Contains reports whether either epoch holds the key.
func (r *Rotating) Contains(key uint64) bool {
	return r.cur.Contains(key) || r.prev.Contains(key)
}

// Rotate expires everything not refreshed during the last epoch: the
// previous table is drained (its register deltas returned) and the tables
// swap, so the just-current epoch becomes the grace period.
func (r *Rotating) Rotate() (dPhi, dW int64, n int) {
	dPhi, dW, n = r.prev.Drain()
	r.cur, r.prev = r.prev, r.cur
	return dPhi, dW, n
}

// Occupied returns live entries across both epochs.
func (r *Rotating) Occupied() int { return r.cur.Occupied + r.prev.Occupied }
