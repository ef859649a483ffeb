package token

import (
	"math"
	"testing"
	"testing/quick"
)

const phiA = 90.0 // a VF hose of 90 tokens divides evenly by 2 and 3

func backlogged() *Pair { return &Pair{Demand: -1} }

func TestSenderAssignEqualSplit(t *testing.T) {
	// Fig 21a: sender a1 has three backlogged pairs → φ^a/3 each.
	pairs := []*Pair{backlogged(), backlogged(), backlogged()}
	SenderAssign(phiA, pairs)
	for i, p := range pairs {
		if math.Abs(p.Requested-phiA/3) > 1e-9 {
			t.Errorf("pair %d requested %v, want %v", i, p.Requested, phiA/3)
		}
	}
}

func TestReceiverAdmitMaxMin(t *testing.T) {
	// Fig 21a receiver a6: demands φ^a/3 (from a1) and φ^a (from a2)
	// against hose φ^a. Fair share φ^a/2: a1's request fits → Unbound;
	// a2 gets the leftover 2φ^a/3.
	pairs := []*Pair{
		{Requested: phiA / 3},
		{Requested: phiA},
	}
	ReceiverAdmit(phiA, pairs)
	if pairs[0].Admitted != Unbound {
		t.Errorf("small demand admitted = %v, want Unbound", pairs[0].Admitted)
	}
	if math.Abs(pairs[1].Admitted-2*phiA/3) > 1e-9 {
		t.Errorf("large demand admitted = %v, want %v", pairs[1].Admitted, 2*phiA/3)
	}
}

func TestSenderAssignInsufficientDemand(t *testing.T) {
	// Fig 21b: one of three pairs has tiny demand ε. It is still
	// admitted the fair share (boost), and its spare (fair−ε) is
	// redistributed to the other two.
	eps := 3.0
	pairs := []*Pair{
		{Demand: eps},
		backlogged(),
		backlogged(),
	}
	SenderAssign(phiA, pairs)
	equal := phiA / 3
	if math.Abs(pairs[0].Requested-equal) > 1e-9 {
		t.Errorf("bounded pair requested %v, want boost to %v", pairs[0].Requested, equal)
	}
	wantOther := equal + (equal-eps)/2
	for i := 1; i < 3; i++ {
		if math.Abs(pairs[i].Requested-wantOther) > 1e-9 {
			t.Errorf("pair %d requested %v, want %v", i, pairs[i].Requested, wantOther)
		}
	}
	// Total over-assignment is bounded by double the VF tokens.
	total := 0.0
	for _, p := range pairs {
		total += p.Requested
	}
	if total > 2*phiA+1e-9 {
		t.Errorf("total assigned %v exceeds 2φ^a", total)
	}
}

func TestSenderAssignReceiverBounded(t *testing.T) {
	// A pair previously admitted only 10 tokens by its receiver frees
	// the rest for its sibling.
	pairs := []*Pair{
		{Demand: -1, Admitted: 10},
		{Demand: -1, Admitted: Unbound},
	}
	SenderAssign(phiA, pairs)
	if math.Abs(pairs[0].Requested-10) > 1e-9 {
		t.Errorf("receiver-bounded pair requested %v, want 10", pairs[0].Requested)
	}
	if math.Abs(pairs[1].Requested-(phiA-10)) > 1e-9 {
		t.Errorf("sibling requested %v, want %v", pairs[1].Requested, phiA-10)
	}
}

func TestSenderAssignNoPairsOrNoTokens(t *testing.T) {
	SenderAssign(phiA, nil) // must not panic
	p := backlogged()
	SenderAssign(0, []*Pair{p})
	if p.Requested != 0 {
		t.Errorf("zero-hose assignment = %v", p.Requested)
	}
}

func TestReceiverAdmitAllFit(t *testing.T) {
	pairs := []*Pair{{Requested: 10}, {Requested: 20}}
	ReceiverAdmit(phiA, pairs)
	for i, p := range pairs {
		if p.Admitted != Unbound {
			t.Errorf("pair %d admitted %v, want Unbound", i, p.Admitted)
		}
	}
}

func TestEffective(t *testing.T) {
	p := &Pair{Requested: 30, Admitted: Unbound}
	if p.Effective() != 30 {
		t.Errorf("Effective with Unbound = %v", p.Effective())
	}
	p.Admitted = 20
	if p.Effective() != 20 {
		t.Errorf("Effective clipped = %v", p.Effective())
	}
	p.Admitted = 0 // no response yet
	if p.Effective() != 30 {
		t.Errorf("Effective without response = %v", p.Effective())
	}
}

// Property: receiver admission is feasible — the sum of what bounded pairs
// are admitted plus fitting requests never exceeds the hose, and every
// response is either Unbound or ≤ the request... (a bounded admission is
// always strictly below the request).
func TestReceiverAdmitFeasibleProperty(t *testing.T) {
	f := func(reqsRaw []uint16, hoseRaw uint16) bool {
		if len(reqsRaw) == 0 || len(reqsRaw) > 20 {
			return true
		}
		hose := float64(hoseRaw%1000) + 1
		pairs := make([]*Pair, len(reqsRaw))
		for i, r := range reqsRaw {
			pairs[i] = &Pair{Requested: float64(r % 500)}
		}
		ReceiverAdmit(hose, pairs)
		total := 0.0
		for _, p := range pairs {
			if p.Admitted == Unbound {
				total += p.Requested
			} else {
				if p.Admitted > p.Requested+1e-9 {
					return false
				}
				total += p.Admitted
			}
		}
		return total <= hose+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: sender assignment conserves tokens up to the documented 2×
// boost bound, and all requests are non-negative.
func TestSenderAssignBoundProperty(t *testing.T) {
	f := func(demandsRaw []int16, hoseRaw uint16) bool {
		if len(demandsRaw) == 0 || len(demandsRaw) > 20 {
			return true
		}
		hose := float64(hoseRaw%1000) + 1
		pairs := make([]*Pair, len(demandsRaw))
		for i, d := range demandsRaw {
			dem := float64(d)
			if d%3 == 0 {
				dem = -1
			} else if dem < 0 {
				dem = -dem
			}
			pairs[i] = &Pair{Demand: dem}
		}
		SenderAssign(hose, pairs)
		total := 0.0
		for _, p := range pairs {
			if p.Requested < -1e-9 {
				return false
			}
			total += p.Requested
		}
		return total <= 2*hose+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenAssignment(b *testing.B) {
	pairs := make([]*Pair, 64)
	for i := range pairs {
		pairs[i] = &Pair{Demand: float64(i % 7)}
		if i%3 == 0 {
			pairs[i].Demand = -1
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SenderAssign(1000, pairs)
		ReceiverAdmit(1000, pairs)
	}
}
