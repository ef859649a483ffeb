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
// was 90 % of all bytes a 1024-host run allocated. Each bank therefore
// stores only the slots that hold an entry, in a small open-addressed table
// keyed by the slot's index in the modelled array: it starts empty, doubles
// with occupancy, gives a cell back the moment its slot empties and keeps
// its capacity when it is drained, so bytes follow the live entries and a
// steady churn of VM-pairs allocates nothing. A cell is one slot, not one
// bucket: a link's few VM-pairs almost never share a bucket, so a cell of
// two slots would be half empty. A lookup of an absent slot reads as empty.
// Hashes, fingerprints, bucket and slot choice, collisions, counters and
// every returned delta are those of the dense array — bloom_test.go keeps
// the dense layout as the reference model and checks the two against each
// other operation by operation.
package bloom

import "fmt"

// bucketWidth is the number of entry slots per bucket. Two slots per
// bucket keeps the omission rate below the paper's 5% target at the
// paper's 20K-VM-pair load. Slot s of bucket i has index i·bucketWidth + s.
const bucketWidth = 2

// cell is one position of a bank's store: the occupied slot with index
// key−1 of the modelled array, or nothing when key is 0. The fields are
// flat and ordered by size, so a cell is 24 bytes.
type cell struct {
	lastSeen    int64
	phi, window uint32
	fp          uint16 // fingerprint; never 0
	key         uint32
}

// bank is one memory bank's occupied slots: open addressing with linear
// probing over a power-of-two array at most three quarters full, and
// backward-shift deletion, so there are no tombstones and a slot that
// empties frees its cell at once. A slot index is already the low bits of
// a mixed hash (times the bucket width, plus the slot), so it is its own
// probe start.
type bank struct {
	cells []cell
	used  int
}

// find returns the position of slot j's cell, or -1.
func (bk *bank) find(j uint32) int {
	if bk.used == 0 {
		return -1
	}
	mask := uint32(len(bk.cells) - 1)
	for p := j & mask; ; p = (p + 1) & mask {
		switch bk.cells[p].key {
		case j + 1:
			return int(p)
		case 0:
			return -1
		}
	}
}

// add stores c, whose slot must have no cell; it is the one place a table
// allocates.
func (bk *bank) add(c cell) {
	if (bk.used+1)*4 > len(bk.cells)*3 {
		old := bk.cells
		bk.cells, bk.used = make([]cell, max(4, 2*len(old))), 0
		for p := range old {
			if old[p].key != 0 {
				bk.add(old[p])
			}
		}
	}
	mask := uint32(len(bk.cells) - 1)
	p := (c.key - 1) & mask
	for bk.cells[p].key != 0 {
		p = (p + 1) & mask
	}
	bk.cells[p] = c
	bk.used++
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
// slots supports 20K distinct VM-pairs with <5% collision rate. No slot
// memory is allocated here; it follows the inserts. A bank holds at most
// 2³¹ slots, so a slot index plus one fits a cell's key.
func New(slotsPerBank int) *Table {
	if slotsPerBank < 1 || uint64(slotsPerBank) > 1<<31 {
		panic(fmt.Sprintf("bloom: slotsPerBank %d outside [1, 2^31]", slotsPerBank))
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

// lookup searches the key's two buckets, bank 0 first and slot 0 first. It
// returns the bank and cell position of the slot holding the key's
// fingerprint; or, with pos -1, the bank and index of the first candidate
// slot without a cell (bank -1 when other keys hold all of them). fp is the
// key's fingerprint.
func (t *Table) lookup(key uint64) (b, pos int, slot uint32, fp uint16) {
	i0, i1, fp := t.slots(key)
	b = -1
	for cb, i := range [2]uint64{i0, i1} {
		bk := &t.banks[cb]
		for s := range uint32(bucketWidth) {
			j := uint32(i)*bucketWidth + s
			switch p := bk.find(j); {
			case p >= 0 && bk.cells[p].fp == fp:
				return cb, p, j, fp
			case p < 0 && b < 0:
				b, slot = cb, j
			}
		}
	}
	return b, -1, slot, fp
}

// Update records that the VM-pair identified by key reported token phi and
// window w at time now (simulation picoseconds). It returns the deltas the
// caller must apply to the link's Φ and W registers. ok is false when both
// candidate slots are occupied by other keys; the entry is then omitted and
// the deltas are zero.
func (t *Table) Update(key uint64, phi, w uint32, now int64) (dPhi, dW int64, ok bool) {
	b, pos, j, fp := t.lookup(key)
	switch {
	case pos >= 0:
		c := &t.banks[b].cells[pos]
		dPhi = int64(phi) - int64(c.phi)
		dW = int64(w) - int64(c.window)
		c.phi, c.window, c.lastSeen = phi, w, now
		return dPhi, dW, true
	case b >= 0:
		// The first empty slot, bank 0 first: an insert makes its cell.
		t.banks[b].add(cell{lastSeen: now, phi: phi, window: w, fp: fp, key: j + 1})
		t.Occupied++
		return int64(phi), int64(w), true
	}
	t.Collisions++
	return 0, 0, false
}

// Remove deletes the VM-pair's entry (finish probe, §3.6), returning the
// register deltas (negative) and whether an entry was found.
func (t *Table) Remove(key uint64) (dPhi, dW int64, ok bool) {
	b, pos, _, _ := t.lookup(key)
	if pos < 0 {
		return 0, 0, false
	}
	bk := &t.banks[b]
	dPhi, dW = -int64(bk.cells[pos].phi), -int64(bk.cells[pos].window)
	bk.del(pos)
	t.Occupied--
	return dPhi, dW, true
}

// Contains reports whether the key currently has an entry.
func (t *Table) Contains(key uint64) bool {
	_, pos, _, _ := t.lookup(key)
	return pos >= 0
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
			if c := &bk.cells[p]; c.key != 0 && c.lastSeen < cutoff {
				dPhi -= int64(c.phi)
				dW -= int64(c.window)
				n++
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
		for _, c := range bk.cells {
			if c.key != 0 {
				dPhi -= int64(c.phi)
				dW -= int64(c.window)
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
