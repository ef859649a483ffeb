package token

import "testing"

// TestAssignmentsAllocateNothing: both sides of Algorithm 1 run every token
// period on every host, over the few pairs a VF has there; ordering them
// works on the stack.
func TestAssignmentsAllocateNothing(t *testing.T) {
	pairs := make([]*Pair, stackPairs)
	for i := range pairs {
		pairs[i] = &Pair{Demand: -1, Requested: float64(stackPairs - i), Admitted: Unbound}
	}
	pairs[3].Admitted, pairs[5].Demand = 2, 0.5
	if a := testing.AllocsPerRun(100, func() { SenderAssign(40, pairs) }); a != 0 {
		t.Errorf("SenderAssign over %d pairs allocates %v times", len(pairs), a)
	}
	if a := testing.AllocsPerRun(100, func() { ReceiverAdmit(40, pairs) }); a != 0 {
		t.Errorf("ReceiverAdmit over %d pairs allocates %v times", len(pairs), a)
	}
}
