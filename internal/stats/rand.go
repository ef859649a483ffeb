package stats

import "math/rand"

// NewRand returns a generator whose stream is rand.New(rand.NewSource(seed))'s
// value for value, through every method of *rand.Rand and across Seed. It
// holds the normalised seed and a draw count instead of math/rand's 607-word
// state, so it costs a few dozen bytes and tens of nanoseconds to make — the
// size of what a per-host or per-shard stream, which draws a handful of
// values in a run, needs.
//
// math/rand is an additive lagged-Fibonacci generator over vec[0..606]. Seed
// fills vec[i] from steps 21+3i, 22+3i and 23+3i of the LCG x ← 48271·x mod
// (2³¹−1) started at the normalised seed, XORed with a fixed table. Draw k
// (from 0) writes vec[333−k] = vec[333−k] + vec[606−k], and the first draw
// that reads a written word is draw 273: before it, every draw is a closed
// form of the seed, computed here from a table of the LCG's powers. Draw 273
// makes the real source once, advances it past the 273 draws already given
// and delegates to it from then on.
func NewRand(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

var (
	// lcgPow[n] is 48271ⁿ mod (2³¹−1): step n of the seeding LCG from x is
	// x·lcgPow[n] mod (2³¹−1).
	lcgPow [23 + 3*(rngLen-1) + 1]uint64
	// cooked is math/rand's seeding table, which its package does not
	// export; init recovers the words the closed form reads, 61..606, from
	// one real source's first 607 draws.
	cooked [rngLen]uint64
)

func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = lcgPow[n-1] * lcgMul % int32max
	}
	// Draws x[k] of seed 1, in the notation above: draw k < 273 reads
	// vec0[333−k] and vec0[606−k]; draw 334 ≤ k < 607 reads the unwritten
	// vec0[940−k] and the word draw k−273 wrote. The second recovers
	// vec0[334..606], and then the first vec0[61..333]. vec0[0..60] is read
	// only after the real source has taken over, so it is not recovered.
	src := rand.NewSource(1).(rand.Source64)
	var x, vec [rngLen]uint64
	for k := range x {
		x[k] = src.Uint64()
	}
	for k := 334; k < rngLen; k++ {
		vec[940-k] = x[k] - x[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[333-k] = x[k] - vec[606-k]
	}
	for i := 333 - rngTap + 1; i < rngLen; i++ {
		cooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG's contribution to vec[i] for normalised seed s.
func lcgWord(s uint64, i int) uint64 {
	n := 21 + 3*i
	return (s*lcgPow[n]%int32max)<<40 ^ (s*lcgPow[n+1]%int32max)<<20 ^ s*lcgPow[n+2]%int32max
}

// source is a rand.Source64 reproducing rand.NewSource: the closed form for
// the first rngTap draws, the real source after them.
type source struct {
	seed uint32 // normalised as math/rand's Seed does: 1 ≤ seed < 2³¹−1
	n    uint32 // draws so far, until full takes over
	full rand.Source64
}

func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{seed: uint32(seed)}
}

func (s *source) Uint64() uint64 {
	if s.full != nil {
		return s.full.Uint64()
	}
	k := int(s.n)
	if k == rngTap {
		s.full = rand.NewSource(int64(s.seed)).(rand.Source64)
		for range rngTap {
			s.full.Uint64()
		}
		return s.full.Uint64()
	}
	s.n++
	seed := uint64(s.seed)
	return (cooked[333-k] ^ lcgWord(seed, 333-k)) + (cooked[606-k] ^ lcgWord(seed, 606-k))
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
