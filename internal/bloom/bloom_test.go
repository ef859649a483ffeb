package bloom

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInsertUpdateRemove(t *testing.T) {
	tb := New(1024)
	dPhi, dW, ok := tb.Update(42, 10, 1000, 1)
	if !ok || dPhi != 10 || dW != 1000 {
		t.Fatalf("insert: dPhi=%d dW=%d ok=%v", dPhi, dW, ok)
	}
	if !tb.Contains(42) {
		t.Fatal("Contains(42) = false after insert")
	}
	if tb.Occupied != 1 {
		t.Fatalf("Occupied = %d", tb.Occupied)
	}
	// Update with changed window: delta only.
	dPhi, dW, ok = tb.Update(42, 10, 1500, 2)
	if !ok || dPhi != 0 || dW != 500 {
		t.Fatalf("update: dPhi=%d dW=%d ok=%v", dPhi, dW, ok)
	}
	// Shrinking window gives negative delta.
	_, dW, _ = tb.Update(42, 10, 200, 3)
	if dW != -1300 {
		t.Fatalf("shrink dW = %d, want -1300", dW)
	}
	// Remove returns the full negative contribution.
	dPhi, dW, ok = tb.Remove(42)
	if !ok || dPhi != -10 || dW != -200 {
		t.Fatalf("remove: dPhi=%d dW=%d ok=%v", dPhi, dW, ok)
	}
	if tb.Contains(42) || tb.Occupied != 0 {
		t.Fatal("entry survived Remove")
	}
	// Removing again finds nothing.
	if _, _, ok := tb.Remove(42); ok {
		t.Fatal("second Remove ok")
	}
}

func TestRegisterInvariant(t *testing.T) {
	// Applying all deltas must keep registers equal to the sum over
	// live entries.
	tb := New(4096)
	rng := rand.New(rand.NewSource(7))
	var phiReg, wReg int64
	truth := map[uint64][2]uint32{}
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			phi, w := uint32(rng.Intn(100)+1), uint32(rng.Intn(1<<20))
			dPhi, dW, ok := tb.Update(key, phi, w, int64(i))
			phiReg += dPhi
			wReg += dW
			if ok {
				truth[key] = [2]uint32{phi, w}
			}
		case 2:
			dPhi, dW, ok := tb.Remove(key)
			phiReg += dPhi
			wReg += dW
			if ok {
				delete(truth, key)
			}
		}
	}
	var wantPhi, wantW int64
	for _, v := range truth {
		wantPhi += int64(v[0])
		wantW += int64(v[1])
	}
	if phiReg != wantPhi || wReg != wantW {
		t.Fatalf("registers (%d,%d) != truth (%d,%d)", phiReg, wReg, wantPhi, wantW)
	}
	if phiReg < 0 || wReg < 0 {
		t.Fatal("negative registers")
	}
}

func TestExpire(t *testing.T) {
	tb := New(64)
	tb.Update(1, 5, 100, 10)
	tb.Update(2, 7, 200, 20)
	tb.Update(3, 9, 300, 30)
	dPhi, dW, n := tb.Expire(25) // entries with lastSeen < 25: keys 1, 2
	if n != 2 || dPhi != -12 || dW != -300 {
		t.Fatalf("Expire: n=%d dPhi=%d dW=%d", n, dPhi, dW)
	}
	if tb.Contains(1) || tb.Contains(2) || !tb.Contains(3) {
		t.Fatal("wrong entries expired")
	}
	// Touching an entry via Update refreshes lastSeen.
	tb.Update(3, 9, 300, 100)
	if _, _, n := tb.Expire(50); n != 0 {
		t.Fatalf("refreshed entry expired (n=%d)", n)
	}
}

func TestCollisionRate(t *testing.T) {
	// Paper: 20K distinct VM-pairs on a 2-way structure sized for 20K
	// keeps the omission (false-positive analogue) rate under 5%.
	tb := New(16384) // 2×16384 slots
	inserted, omitted := 0, 0
	for k := uint64(1); k <= 20000; k++ {
		_, _, ok := tb.Update(k, 1, 1, 0)
		if ok {
			inserted++
		} else {
			omitted++
		}
	}
	rate := float64(omitted) / 20000
	if rate >= 0.05 {
		t.Fatalf("omission rate = %.3f, want < 0.05 (inserted %d)", rate, inserted)
	}
	if tb.Collisions != uint64(omitted) {
		t.Errorf("Collisions = %d, omitted = %d", tb.Collisions, omitted)
	}
}

func TestLoadFactorAndReset(t *testing.T) {
	tb := New(100) // rounds to 128
	if tb.slotsPerBank() != 128 {
		t.Fatalf("SlotsPerBank = %d, want 128", tb.slotsPerBank())
	}
	for k := uint64(0); k < 64; k++ {
		tb.Update(k, 1, 1, 0)
	}
	if lf := tb.loadFactor(); lf <= 0 || lf > 0.5 {
		t.Fatalf("LoadFactor = %v", lf)
	}
	tb.Reset()
	if tb.Occupied != 0 || tb.Collisions != 0 || tb.loadFactor() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	// Zero slots, and more than a cell's uint32 key can index.
	for _, n := range []int{0, math.MaxInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

// Property: for any operation sequence, Occupied matches the number of
// distinct contained keys and registers never go negative when applying
// deltas in order.
func TestOccupiedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(512)
		live := map[uint64]bool{}
		var phiReg int64
		for i := 0; i < 500; i++ {
			key := uint64(rng.Intn(200))
			if rng.Intn(2) == 0 {
				if dPhi, _, ok := tb.Update(key, 1, 1, int64(i)); ok {
					live[key] = true
					phiReg += dPhi
				}
			} else {
				if dPhi, _, ok := tb.Remove(key); ok {
					delete(live, key)
					phiReg += dPhi
				}
			}
			if phiReg < 0 {
				return false
			}
		}
		return tb.Occupied == len(live) && phiReg == int64(len(live))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpdate(b *testing.B) {
	tb := New(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Update(uint64(i%20000), 1, uint32(i), int64(i))
	}
}

func TestDrain(t *testing.T) {
	tb := New(64)
	tb.Update(1, 5, 100, 0)
	tb.Update(2, 7, 200, 0)
	dPhi, dW, n := tb.Drain()
	if n != 2 || dPhi != -12 || dW != -300 || tb.Occupied != 0 {
		t.Fatalf("Drain: n=%d dPhi=%d dW=%d occ=%d", n, dPhi, dW, tb.Occupied)
	}
}

// entry is one slot of the dense model.
type entry struct {
	fp       uint16 // fingerprint; 0 means empty
	phi      uint32
	window   uint32
	lastSeen int64
}

type bucket [bucketWidth]entry

// denseTable is the layout Table had before its banks became sparse: both
// banks fully allocated by the constructor. It is kept as the reference
// model the sparse table is property-tested against.
type denseTable struct {
	banks      [2][]bucket
	mask       uint64
	collisions uint64
	occupied   int
}

func newDense(slotsPerBank int) *denseTable {
	n := 1
	for n*bucketWidth < slotsPerBank {
		n <<= 1
	}
	return &denseTable{banks: [2][]bucket{make([]bucket, n), make([]bucket, n)}, mask: uint64(n - 1)}
}

func (t *denseTable) slots(key uint64) ([2]uint64, uint16) {
	i0, i1, fp := (&Table{mask: t.mask}).slots(key)
	return [2]uint64{i0, i1}, fp
}

func (t *denseTable) update(key uint64, phi, w uint32, now int64) (dPhi, dW int64, ok bool) {
	idx, fp := t.slots(key)
	for b, i := range idx {
		for s := range t.banks[b][i] {
			if e := &t.banks[b][i][s]; e.fp == fp {
				dPhi, dW = int64(phi)-int64(e.phi), int64(w)-int64(e.window)
				e.phi, e.window, e.lastSeen = phi, w, now
				return dPhi, dW, true
			}
		}
	}
	for b, i := range idx {
		for s := range t.banks[b][i] {
			if e := &t.banks[b][i][s]; e.fp == 0 {
				*e = entry{fp: fp, phi: phi, window: w, lastSeen: now}
				t.occupied++
				return int64(phi), int64(w), true
			}
		}
	}
	t.collisions++
	return 0, 0, false
}

func (t *denseTable) remove(key uint64) (dPhi, dW int64, ok bool) {
	idx, fp := t.slots(key)
	for b, i := range idx {
		for s := range t.banks[b][i] {
			if e := &t.banks[b][i][s]; e.fp == fp {
				dPhi, dW = -int64(e.phi), -int64(e.window)
				*e = entry{}
				t.occupied--
				return dPhi, dW, true
			}
		}
	}
	return 0, 0, false
}

func (t *denseTable) contains(key uint64) bool {
	idx, fp := t.slots(key)
	for b, i := range idx {
		for s := range t.banks[b][i] {
			if t.banks[b][i][s].fp == fp {
				return true
			}
		}
	}
	return false
}

// expire removes entries older than cutoff; drain is expire(MaxInt64).
func (t *denseTable) expire(cutoff int64) (dPhi, dW int64, n int) {
	for b := range t.banks {
		for i := range t.banks[b] {
			for s := range t.banks[b][i] {
				if e := &t.banks[b][i][s]; e.fp != 0 && e.lastSeen < cutoff {
					dPhi -= int64(e.phi)
					dW -= int64(e.window)
					*e = entry{}
					t.occupied--
					n++
				}
			}
		}
	}
	return dPhi, dW, n
}

func (t *denseTable) loadFactor() float64 {
	return float64(t.occupied) / float64(2*(t.mask+1)*bucketWidth)
}

func (t *denseTable) reset() {
	clear(t.banks[0])
	clear(t.banks[1])
	t.occupied, t.collisions = 0, 0
}

// TestSparseMatchesDense drives the sparse Table and the dense model with
// one seeded random operation stream and requires identical return values
// and counters after every operation — at a table smaller than one page, one
// of a few pages, and the paper's size, each loaded far enough to collide.
func TestSparseMatchesDense(t *testing.T) {
	for _, tc := range []struct{ slots, keys, ops int }{
		{64, 200, 20000},
		{1024, 3000, 40000},
		{16384, 45000, 200000},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sp, de := New(tc.slots), newDense(tc.slots)
			if sp.slotsPerBank() != int(de.mask+1)*bucketWidth {
				t.Fatalf("slots %d: SlotsPerBank = %d", tc.slots, sp.slotsPerBank())
			}
			collided := false
			for i := 0; i < tc.ops; i++ {
				key := uint64(rng.Intn(tc.keys))
				phi, w, now := uint32(rng.Intn(5000)), uint32(rng.Intn(1<<20)), int64(i)
				var got, want [3]int64
				b2i := func(b bool) int64 {
					if b {
						return 1
					}
					return 0
				}
				pack := func(a, b int64, ok bool) [3]int64 { return [3]int64{a, b, b2i(ok)} }
				packN := func(a, b int64, n int) [3]int64 { return [3]int64{a, b, int64(n)} }
				// Mostly updates, so the tables fill; the wholesale operations
				// come a handful of times per stream, so they stay full.
				op := 100 + rng.Intn(900)
				if rare := rng.Intn(tc.ops); rare < 10 {
					op = rare
				}
				switch {
				case op >= 400:
					got, want = pack(sp.Update(key, phi, w, now)), pack(de.update(key, phi, w, now))
					collided = collided || want[2] == 0
				case op >= 250:
					got, want = pack(sp.Remove(key)), pack(de.remove(key))
				case op >= 100:
					got[0], want[0] = b2i(sp.Contains(key)), b2i(de.contains(key))
				case op >= 4:
					cutoff := now - int64(rng.Intn(tc.ops/4))
					got, want = packN(sp.Expire(cutoff)), packN(de.expire(cutoff))
				case op >= 1:
					got, want = packN(sp.Drain()), packN(de.expire(math.MaxInt64))
				default:
					sp.Reset()
					de.reset()
				}
				if got != want {
					t.Fatalf("slots %d seed %d op %d (%d): table %v want %v", tc.slots, seed, i, op, got, want)
				}
				if sp.Occupied != de.occupied || sp.Collisions != de.collisions || sp.loadFactor() != de.loadFactor() {
					t.Fatalf("slots %d seed %d op %d (%d): occupied %d/%d collisions %d/%d load %v/%v", tc.slots, seed, i, op,
						sp.Occupied, de.occupied, sp.Collisions, de.collisions, sp.loadFactor(), de.loadFactor())
				}
			}
			if !collided {
				t.Errorf("slots %d seed %d: stream produced no collision", tc.slots, seed)
			}
		}
	}
}

// TestTableAllocatesForInserts pins the sparse layout: the paper-sized table
// with a handful of VM-pairs costs kilobytes, not the 768 KiB register file.
func TestTableAllocatesForInserts(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := New(16384)
	for k := uint64(1); k <= 16; k++ {
		tb.Update(k, 1, 1, 0)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New(16384) + 16 inserts allocated %d bytes, want < 64 KiB", got)
	}
	if tb.Occupied != 16 {
		t.Fatalf("Occupied = %d", tb.Occupied)
	}
}

// TestBytesFollowLiveEntries is the allocation gate on the sparse banks: N
// VM-pairs inserted into an empty paper-sized table cost a small multiple of
// N 24-byte slot cells — at most seven, the doubling's geometric sum at its
// worst N — where 56-byte cells of a whole bucket cost 58 656 bytes at this
// N; and a table emptied by removal, expiry, drain or reset keeps its
// storage, so the same VM-pairs coming back allocate nothing.
func TestBytesFollowLiveEntries(t *testing.T) {
	const n = 385 // one more than 512 cells hold at three quarters: the doubling's worst case
	if s := unsafe.Sizeof(cell{}); s != 24 {
		t.Fatalf("a slot cell is %d bytes, want 24 (flat fields, ordered by size)", s)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	tb := New(16384)
	insert := func(first, now int) {
		for k := first; k < first+n; k++ {
			tb.Update(uint64(k), 1, 1, int64(now))
		}
	}
	if got, limit := allocated(func() { insert(0, 0) }), uint64(n*7*24); got > limit {
		t.Errorf("%d inserts into an empty table allocated %d bytes, want <= %d (7 cells' worth each)", n, got, limit)
	}
	if tb.Occupied+int(tb.Collisions) != n || tb.Collisions > n/100 {
		t.Fatalf("%d occupied, %d collisions", tb.Occupied, tb.Collisions)
	}
	churn := func() {
		for k := 0; k < n; k++ {
			tb.Remove(uint64(k))
		}
		insert(0, 1)
		tb.Expire(2)
		insert(0, 2)
		tb.Drain()
		insert(0, 3)
		tb.Reset()
		insert(0, 4)
	}
	if got := allocated(churn); got > 0 {
		t.Errorf("taking %d VM-pairs out of a table and putting them back allocated %d bytes, want 0", n, got)
	}
	if tb.Occupied == 0 || tb.Occupied+int(tb.Collisions) != n {
		t.Fatalf("after the churn: %d occupied, %d collisions", tb.Occupied, tb.Collisions)
	}
}
