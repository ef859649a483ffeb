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
// was 90 % of all bytes a 1024-host run allocated, and a 768-byte page plus a
// 4 KiB directory for nearly every first (VM-pair, link) contact was still a
// fifth. Each bank therefore stores only the buckets that hold an entry, in a
// small open-addressed table keyed by the bucket's index in the modelled
// array: it starts empty, doubles with occupancy, gives a slot back the
// moment its bucket empties and keeps its capacity when it is drained, so
// bytes follow the live entries and a steady churn of VM-pairs allocates
// nothing. A lookup of an absent bucket reads as empty. Hashes, fingerprints,
// bucket choice, collisions, counters and every returned delta are those of
// the dense array — bloom_test.go keeps the dense layout as the reference
// model and checks the two against each other operation by operation.
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

func (b *bucket) empty() bool { return b[0].fp == 0 && b[1].fp == 0 }

// cell is one position of a bank's store: the bucket with index key−1 of the
// modelled array, or nothing when key is 0.
type cell struct {
	key uint64
	b   bucket
}

// bank is one memory bank's occupied buckets: open addressing with linear
// probing over a power-of-two array at most three quarters full, and
// backward-shift deletion, so there are no tombstones and a bucket that
// empties frees its cell at once. A bucket index is already the low bits of
// a mixed hash, so it is its own probe start.
type bank struct {
	cells []cell
	used  int
}

// find returns the position of bucket i's cell, or -1.
func (bk *bank) find(i uint64) int {
	if bk.used == 0 {
		return -1
	}
	mask := uint64(len(bk.cells) - 1)
	for p := i & mask; ; p = (p + 1) & mask {
		switch bk.cells[p].key {
		case i + 1:
			return int(p)
		case 0:
			return -1
		}
	}
}

// add makes a cell for bucket i, which must have none, and returns the
// bucket; it is the one place a table allocates.
func (bk *bank) add(i uint64) *bucket {
	if (bk.used+1)*4 > len(bk.cells)*3 {
		old := bk.cells
		bk.cells, bk.used = make([]cell, max(4, 2*len(old))), 0
		for p := range old {
			if old[p].key != 0 {
				*bk.add(old[p].key - 1) = old[p].b
			}
		}
	}
	mask := uint64(len(bk.cells) - 1)
	p := i & mask
	for bk.cells[p].key != 0 {
		p = (p + 1) & mask
	}
	bk.cells[p].key = i + 1
	bk.used++
	return &bk.cells[p].b
}

// del vacates position p and closes the gap: every later cell of the probe
// run that may move back towards its start does.
func (bk *bank) del(p int) {
	mask := len(bk.cells) - 1
	bk.used--
	for {
		bk.cells[p] = cell{}
		q := p
		for {
			q = (q + 1) & mask
			c := &bk.cells[q]
			if c.key == 0 {
				return
			}
			// c may fill the gap unless its probe start lies after the gap.
			if start := int(c.key-1) & mask; (q-start)&mask >= (q-p)&mask {
				break
			}
		}
		bk.cells[p] = bk.cells[q]
		p = q
	}
}

// Table is the 2-way hashed active-VM-pair table. Create one with New.
type Table struct {
	banks [2]bank
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
// memory is allocated here; it follows the inserts.
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

// find returns the key's entry in either bank and where it lives (bank and
// cell position), or nil. A bucket without a cell reads as empty.
func (t *Table) find(i0, i1 uint64, fp uint16) (e *entry, b, pos int) {
	for b, i := range [2]uint64{i0, i1} {
		pos := t.banks[b].find(i)
		if pos < 0 {
			continue
		}
		bk := &t.banks[b].cells[pos].b
		for s := range bk {
			if bk[s].fp == fp {
				return &bk[s], b, pos
			}
		}
	}
	return nil, 0, 0
}

// Update records that the VM-pair identified by key reported token phi and
// window w at time now (simulation picoseconds). It returns the deltas the
// caller must apply to the link's Φ and W registers. ok is false when both
// candidate slots are occupied by other keys; the entry is then omitted and
// the deltas are zero.
func (t *Table) Update(key uint64, phi, w uint32, now int64) (dPhi, dW int64, ok bool) {
	i0, i1, fp := t.slots(key)
	if e, _, _ := t.find(i0, i1, fp); e != nil {
		dPhi = int64(phi) - int64(e.phi)
		dW = int64(w) - int64(e.window)
		e.phi, e.window, e.lastSeen = phi, w, now
		return dPhi, dW, true
	}
	// Empty slot? Bank 0 first; a bucket without a cell is all empty slots,
	// and an insert into it makes the cell.
	for b, i := range [2]uint64{i0, i1} {
		var bk *bucket
		if pos := t.banks[b].find(i); pos >= 0 {
			bk = &t.banks[b].cells[pos].b
		} else {
			bk = t.banks[b].add(i)
		}
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
	e, b, pos := t.find(t.slots(key))
	if e == nil {
		return 0, 0, false
	}
	dPhi, dW = -int64(e.phi), -int64(e.window)
	*e = entry{}
	t.Occupied--
	if bk := &t.banks[b]; bk.cells[pos].b.empty() {
		bk.del(pos)
	}
	return dPhi, dW, true
}

// Contains reports whether the key currently has an entry.
func (t *Table) Contains(key uint64) bool {
	e, _, _ := t.find(t.slots(key))
	return e != nil
}

// Expire removes every entry whose lastSeen is strictly older than cutoff
// (the silent-quit cleanup μFAB-C runs every 10 s). It returns the summed
// register deltas (≤ 0) and the number of entries expired.
func (t *Table) Expire(cutoff int64) (dPhi, dW int64, n int) {
	if t.Occupied == 0 {
		return 0, 0, 0
	}
	for b := range t.banks {
		bk := &t.banks[b]
		for p := 0; p < len(bk.cells); {
			c := &bk.cells[p]
			for s := range c.b {
				if e := &c.b[s]; e.fp != 0 && e.lastSeen < cutoff {
					dPhi -= int64(e.phi)
					dW -= int64(e.window)
					*e = entry{}
					n++
				}
			}
			if c.key != 0 && c.b.empty() {
				// Closing the gap may move a later cell of the run here (and one
				// already swept, from the array's start to its end, where it is
				// swept again to no effect): look at p once more.
				bk.del(p)
				continue
			}
			p++
		}
	}
	t.Occupied -= n
	return dPhi, dW, n
}

// Drain removes every entry, returning the summed register deltas (≤ 0)
// and the number of entries removed. The banks keep their capacity.
func (t *Table) Drain() (dPhi, dW int64, n int) {
	if t.Occupied == 0 {
		return 0, 0, 0
	}
	for b := range t.banks {
		bk := &t.banks[b]
		for p := range bk.cells {
			for _, e := range bk.cells[p].b {
				if e.fp != 0 {
					dPhi -= int64(e.phi)
					dW -= int64(e.window)
				}
			}
		}
		clear(bk.cells)
		bk.used = 0
	}
	n, t.Occupied = t.Occupied, 0
	return dPhi, dW, n
}

// LoadFactor returns occupied slots over total slots.
func (t *Table) LoadFactor() float64 {
	return float64(t.Occupied) / float64(2*(t.mask+1)*bucketWidth)
}

// Reset clears all entries and counters; the banks keep their capacity.
func (t *Table) Reset() {
	t.Drain()
	t.Collisions = 0
}
