package ufabe

import (
	"cmp"
	"slices"
)

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

// vfState is a tenant VF's sender side on one host: the pairs the host
// sources for it. An agent holds one only for a VF it has sourced a pair of;
// the hose, class and roster position are the fabric's (tenant).
type vfState struct {
	*tenant
	pairs []*Pair
	rr    int // round-robin cursor over pairs
}

// wfqClass is one weighted queue of the WFQ engine.
type wfqClass struct {
	// populated holds the VFs of this class that have at least one pair on
	// this host, ascending by roster position. The per-packet pick and the
	// token tick walk it: their cost follows the VM-pairs the host sources
	// (the paper's context table, §4.1), not the tenants of the fabric. wfq
	// maintains it on the two transitions that change it: a VF's first pair
	// added, its last removed.
	populated []*vfState
	// rr is the round-robin cursor: a position in the fabric's roster of
	// the class (every registered VF, not the populated ones), so the
	// service order is that of a scan over every registered VF.
	rr      int
	deficit float64
}

// wfq is the 8-class deficit-round-robin engine.
type wfq struct {
	classes [NumWeightClasses]wfqClass
	weights [NumWeightClasses]float64
	cursor  int
	// roster is the fabric's per-class registration order (Tenancy.roster).
	roster *[NumWeightClasses][]*tenant
}

func newWFQ(roster *[NumWeightClasses][]*tenant) *wfq {
	return &wfq{weights: defaultClassWeights, roster: roster}
}

// byPos orders populated entries by roster position.
func byPos(vf *vfState, pos int) int { return cmp.Compare(vf.pos, pos) }

// addPair appends p to vf's pairs; a VF's first pair enters it in its
// class's populated index.
func (w *wfq) addPair(vf *vfState, p *Pair) {
	vf.pairs = append(vf.pairs, p)
	if len(vf.pairs) > 1 {
		return
	}
	cl := &w.classes[vf.class]
	k, _ := slices.BinarySearchFunc(cl.populated, vf.pos, byPos)
	cl.populated = slices.Insert(cl.populated, k, vf)
}

// removePair removes p from vf's pairs (the pair cursor vf.rr stays where
// it is); a VF's last pair takes it out of the populated index.
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
	if k := slices.Index(cl.populated, vf); k >= 0 {
		cl.populated = slices.Delete(cl.populated, k, k+1)
	}
}

// rosterShrank keeps class c's cursor in range after a VF left the class's
// roster, so the next sweep starts from a valid position. It is
// deliberately not decremented when the VF was below it (the VF it pointed
// at is then skipped once): the service order is part of every golden.
func (w *wfq) rosterShrank(c int) {
	cl := &w.classes[c]
	if n := len(w.roster[c]); n > 0 {
		cl.rr %= n
	} else {
		cl.rr = 0
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
		if cl.deficit <= 0 {
			cl.deficit += quantum * w.weights[w.cursor]
		}
		// RR over the populated VFs in this class, in the cyclic order of
		// their roster positions starting at the cursor — the order a scan
		// of every registered VF visits them in, as a VF without pairs
		// here offers that scan nothing.
		m := len(cl.populated)
		k, _ := slices.BinarySearchFunc(cl.populated, cl.rr, byPos)
		for i := 0; i < m; i++ {
			if k == m {
				k = 0
			}
			vf := cl.populated[k]
			k++
			// RR over pairs in this VF.
			for j := 0; j < len(vf.pairs); j++ {
				p := vf.pairs[(vf.rr+j)%len(vf.pairs)]
				if eligible(p, now) {
					cl.rr = (vf.pos + 1) % len(w.roster[w.cursor])
					vf.rr = (vf.rr + j + 1) % len(vf.pairs)
					return p
				}
			}
		}
		// Nothing eligible in this class: move on without banking deficit
		// (DRR resets idle classes; an unpopulated one refilled above
		// ends here too).
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
