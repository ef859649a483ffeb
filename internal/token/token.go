// Package token implements μFAB's bandwidth-token machinery: the hose-model
// Guarantee Partitioning of Appendix E (Algorithm 1), which splits a VF's
// minimum-bandwidth tokens φ^a into per-VM-pair tokens φ_{a→b} under online
// traffic patterns.
//
// A VF with hose guarantee B^a_min owns φ^a = B^a_min / B_u tokens on each
// side (sender and receiver), where B_u is the bandwidth one token
// represents. The sender apportions tokens across its VM-pairs to fully
// use its hose (conveying the assignment as a demand to the receiver); the
// receiver arbitrates incoming demands with max-min fair sharing. A
// VM-pair's effective token is the minimum of the two sides.
//
// Following the paper's design choice, a VM-pair whose measured demand is
// below its fair share is still admitted at least the fair-share token
// ("boost"), so it can ramp instantly when demand returns; the spare is
// simultaneously redistributed, so at most double the VF's tokens are in
// the network for one RTT (Appendix E).
package token

import (
	"math"
	"slices"
)

// stackPairs is how many pairs the two assignments order without touching the
// heap: their working slice starts on the stack, and a VF with more pairs on
// one host than this spills it. They run every token period on every host,
// so what they allocate is allocated per simulated event.
const stackPairs = 16

// ascending is the three-way form of "a sorts before b iff a < b".
func ascending(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// Unbound marks a receiver response that does not constrain the sender
// (the sender's requested token was below the receiver's fair share).
const Unbound = math.MaxFloat64

// Pair is one VM-pair's token state as seen by one side.
type Pair struct {
	// Demand is the pair's measured demand in tokens (actual TX rate
	// divided by B_u). Negative means unbounded (backlogged).
	Demand float64
	// Requested is the sender-assigned token φ_s, the "demand" conveyed
	// to the receiver.
	Requested float64
	// Admitted is the receiver's response φ_D: Unbound, or the max-min
	// share granted.
	Admitted float64
}

// Effective returns the pair's effective token: min(sender, receiver).
func (p *Pair) Effective() float64 {
	if p.Admitted == Unbound || p.Admitted <= 0 {
		return p.Requested
	}
	return math.Min(p.Requested, p.Admitted)
}

// SenderAssign implements the sender side of Algorithm 1: it distributes
// the VF's total tokens phiVF over the pairs, writing each pair's
// Requested field.
//
// Three classes emerge: demand-bounded pairs (measured demand below the
// equal share) are still admitted the equal share but donate their spare;
// receiver-bounded pairs (a previous response admitted less than the
// current share) are clipped to the admission; the remaining pairs split
// everything left over.
func SenderAssign(phiVF float64, pairs []*Pair) {
	n := len(pairs)
	if n == 0 || phiVF <= 0 {
		return
	}
	equal := phiVF / float64(n)
	spare := 0.0
	var buf [stackPairs]*Pair
	rest := buf[:0]
	for _, p := range pairs {
		p.Requested = 0
		if p.Demand >= 0 && p.Demand < equal {
			// Demand-bounded: boost to the fair share anyway so
			// the pair can grab bandwidth back instantly, but
			// donate the unused part.
			spare += equal - p.Demand
			p.Requested = equal
		} else {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		return
	}
	// Max-min over the remaining pairs against receiver admissions,
	// ascending on last admitted token.
	slices.SortStableFunc(rest, func(a, b *Pair) int {
		ai, aj := a.Admitted, b.Admitted
		if ai <= 0 {
			ai = Unbound
		}
		if aj <= 0 {
			aj = Unbound
		}
		return ascending(ai, aj)
	})
	remainingTokens := equal*float64(len(rest)) + spare
	remaining := len(rest)
	for _, p := range rest {
		share := remainingTokens / float64(remaining)
		adm := p.Admitted
		if adm <= 0 {
			adm = Unbound
		}
		if adm < share {
			// Receiver-bounded: take the admission, free the rest.
			p.Requested = adm
			remainingTokens -= adm
		} else {
			p.Requested = share
			remainingTokens -= share
		}
		remaining--
	}
}

// ReceiverAdmit implements the receiver side of Algorithm 1: max-min fair
// arbitration of the incoming Requested tokens against the VF's receiver
// hose phiVF, writing each pair's Admitted field (Unbound when the request
// fits under the fair share).
func ReceiverAdmit(phiVF float64, pairs []*Pair) {
	n := len(pairs)
	if n == 0 {
		return
	}
	var buf [stackPairs]int
	idx := buf[:0]
	for i := range pairs {
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return ascending(pairs[a].Requested, pairs[b].Requested)
	})
	remainingTokens := phiVF
	remaining := n
	for _, i := range idx {
		p := pairs[i]
		share := remainingTokens / float64(remaining)
		if p.Requested <= share {
			p.Admitted = Unbound
			remainingTokens -= p.Requested
		} else {
			p.Admitted = share
			remainingTokens -= share
		}
		remaining--
	}
}
