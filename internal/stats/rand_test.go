package stats

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

// TestNewRandMatchesMathRand: NewRand's stream is rand.New(rand.NewSource)'s
// value for value through Int63, Uint64, Intn and Float64, across the
// hand-over to the real source at draw 273 and across a re-Seed made after
// it — for math/rand's edge seeds (0 and its stand-in, ±1, ±(2³¹−1) and its
// multiples, the int64 extremes) and for every agent seed of the 1 024-host
// fabric1k Clos at seed 1.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	cl := topo.NewClos(topo.ClosConfig{Pods: 8, ToRsPerPod: 8, AggsPerPod: 4, Cores: 16, HostsPerToR: 16,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
	if len(cl.Hosts) != 1024 {
		t.Fatalf("fabric1k has %d hosts, want 1024", len(cl.Hosts))
	}
	for _, h := range cl.Hosts {
		seeds = append(seeds, 1+int64(h)*0x9e3779b9) // ufabe.New's agent seed
	}
	for _, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		draws := 0
		compare := func(n int) {
			for i := 0; i < n; i++ {
				var g, w any
				switch i % 4 {
				case 0:
					g, w = got.Int63(), want.Int63()
				case 1:
					g, w = got.Uint64(), want.Uint64()
				case 2:
					g, w = got.Intn(3), want.Intn(3)
				case 3:
					g, w = got.Float64(), want.Float64()
				}
				if g != w {
					t.Fatalf("seed %d, call %d: got %v, want %v", seed, draws, g, w)
				}
				draws++
			}
		}
		compare(700)
		got.Seed(seed ^ 0x5eed)
		want.Seed(seed ^ 0x5eed)
		compare(700)
	}
}

// TestNewRandSize: a generator is a few dozen bytes, not math/rand's 4.9 KB.
func TestNewRandSize(t *testing.T) {
	const n = 1000
	keep := make([]*rand.Rand, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewRand(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 128 {
		t.Errorf("NewRand allocates %d B, want <= 128", per)
	} else {
		t.Logf("NewRand allocates %d B", per)
	}
	runtime.KeepAlive(keep)
}

var sinkRand *rand.Rand

// BenchmarkNewRand prices making a generator and drawing what an agent draws
// in a fabric1k run (at most 4 values); BenchmarkNewRand/math is the
// math/rand source it replaces.
func BenchmarkNewRand(b *testing.B) {
	for _, c := range []struct {
		name string
		make func(int64) *rand.Rand
	}{
		{"stats", NewRand},
		{"math", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := c.make(int64(i))
				r.Intn(4)
				r.Intn(4)
				sinkRand = r
			}
		})
	}
}
