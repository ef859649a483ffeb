package ufabe

import "slices"

// Hierarchical traffic admission at the sender (§4.1): VM-pair queues are
// grouped per VF, VFs are assigned to one of eight weighted classes, and a
// deficit-round-robin engine arbitrates classes while plain round-robin
// arbitrates VFs within a class and VM-pairs within a VF. Constraining the
// WFQ engine to 8 distinct weight levels is the paper's FPGA scalability
// trade-off; the same constraint is kept here.

// NumWeightClasses is the number of weighted queues in the WFQ engine.
const NumWeightClasses = 8

// defaultClassWeights are the per-class scheduling weights (power-of-two
// ladder, distinct levels as in §4.1).
var defaultClassWeights = [NumWeightClasses]float64{1, 2, 4, 8, 16, 32, 64, 128}

// vfState groups a tenant VF's pairs on one host.
type vfState struct {
	id    int32
	class int
	// senderTokens is the VF's hose φ^a on the sending side;
	// recvTokens on the receiving side.
	senderTokens float64
	recvTokens   float64
	pairs        []*Pair
	rr           int // round-robin cursor over pairs
}

// wfqClass is one weighted queue of the WFQ engine.
type wfqClass struct {
	vfs []*vfState
	// populated holds, ascending, the positions in vfs of the VFs that have
	// at least one pair on this host. An edge registers every tenant of the
	// fabric but sources pairs of a few, so the per-packet pick and the
	// token tick walk this index instead of vfs: their cost follows the
	// VM-pairs the host sources (the paper's context table, §4.1), not the
	// tenants configured. wfq maintains it on the four transitions that
	// change it: addVF, removeVF, a VF's first pair added, its last removed.
	populated []int
	// rr is the round-robin cursor: a position in vfs (the registered
	// list, not the index), so the service order is that of a scan over
	// every registered VF.
	rr      int
	deficit float64
}

// wfq is the 8-class deficit-round-robin engine.
type wfq struct {
	classes [NumWeightClasses]wfqClass
	weights [NumWeightClasses]float64
	cursor  int
}

func newWFQ() *wfq {
	w := &wfq{weights: defaultClassWeights}
	return w
}

func (w *wfq) addVF(vf *vfState) {
	c := vf.class
	if c < 0 {
		c = 0
	}
	if c >= NumWeightClasses {
		c = NumWeightClasses - 1
	}
	vf.class = c
	cl := &w.classes[c]
	cl.vfs = append(cl.vfs, vf)
	if len(vf.pairs) > 0 {
		cl.populated = append(cl.populated, len(cl.vfs)-1)
	}
}

func (w *wfq) removeVF(vf *vfState) {
	cl := &w.classes[vf.class]
	i := slices.Index(cl.vfs, vf)
	if i < 0 {
		return
	}
	cl.vfs = slices.Delete(cl.vfs, i, i+1)
	// Position i leaves the index; the positions above it shift down.
	k, populated := slices.BinarySearch(cl.populated, i)
	if populated {
		cl.populated = slices.Delete(cl.populated, k, k+1)
	}
	for ; k < len(cl.populated); k++ {
		cl.populated[k]--
	}
	// Keep the round-robin cursor in range so the next sweep starts from a
	// valid VF. It is deliberately not decremented when i was below it (the
	// VF it pointed at is then skipped once): the service order is part of
	// every golden.
	if len(cl.vfs) > 0 {
		cl.rr %= len(cl.vfs)
	} else {
		cl.rr = 0
	}
}

// addPair appends p to vf's pairs; a VF's first pair enters it in its
// class's populated index.
func (w *wfq) addPair(vf *vfState, p *Pair) {
	vf.pairs = append(vf.pairs, p)
	if len(vf.pairs) > 1 {
		return
	}
	cl := &w.classes[vf.class]
	if i := slices.Index(cl.vfs, vf); i >= 0 {
		k, _ := slices.BinarySearch(cl.populated, i)
		cl.populated = slices.Insert(cl.populated, k, i)
	}
}

// removePair removes p from vf's pairs (the pair cursor vf.rr stays where
// it is, like the VF cursor in removeVF); a VF's last pair takes it out of
// the populated index.
func (w *wfq) removePair(vf *vfState, p *Pair) {
	j := slices.Index(vf.pairs, p)
	if j < 0 {
		return
	}
	vf.pairs = slices.Delete(vf.pairs, j, j+1)
	if len(vf.pairs) > 0 {
		return
	}
	cl := &w.classes[vf.class]
	if k, ok := slices.BinarySearch(cl.populated, slices.Index(cl.vfs, vf)); ok {
		cl.populated = slices.Delete(cl.populated, k, k+1)
	}
}

// eligible reports whether the pair can emit a packet right now.
func eligible(p *Pair, now int64) bool {
	if p.Demand == nil || p.Demand.Pending() <= 0 {
		return false
	}
	if int64(p.dataStartAt) > now {
		return false
	}
	return p.inflight < p.Window()
}

// nextPair picks the next VM-pair to serve using DRR over classes and RR
// within class/VF, charging cost bytes against the class deficit. It
// returns nil when no pair is eligible.
func (w *wfq) nextPair(now int64, quantum float64) *Pair {
	// Two sweeps: the first may need to refill deficits.
	for sweep := 0; sweep < 2*NumWeightClasses; sweep++ {
		cl := &w.classes[w.cursor]
		if len(cl.vfs) > 0 {
			if cl.deficit <= 0 {
				cl.deficit += quantum * w.weights[w.cursor]
			}
			// RR over the populated VFs in this class, in the cyclic
			// order of their positions starting at the cursor — the
			// order a scan of every registered VF visits them in, as
			// a VF without pairs offers that scan nothing.
			m := len(cl.populated)
			k, _ := slices.BinarySearch(cl.populated, cl.rr)
			for i := 0; i < m; i++ {
				if k == m {
					k = 0
				}
				pos := cl.populated[k]
				k++
				vf := cl.vfs[pos]
				// RR over pairs in this VF.
				for j := 0; j < len(vf.pairs); j++ {
					p := vf.pairs[(vf.rr+j)%len(vf.pairs)]
					if eligible(p, now) {
						cl.rr = (pos + 1) % len(cl.vfs)
						vf.rr = (vf.rr + j + 1) % len(vf.pairs)
						return p
					}
				}
			}
		}
		// Nothing eligible in this class: move on without banking
		// deficit (DRR resets idle classes).
		cl.deficit = 0
		w.cursor = (w.cursor + 1) % NumWeightClasses
	}
	return nil
}

// charge deducts the transmitted bytes from the serving class and advances
// the cursor when the class has used its quantum.
func (w *wfq) charge(p *Pair, bytes int, vfClass int) {
	cl := &w.classes[vfClass]
	cl.deficit -= float64(bytes)
	if cl.deficit <= 0 {
		w.cursor = (w.cursor + 1) % NumWeightClasses
	}
}
