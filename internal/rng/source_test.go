package rng

import (
	"math"
	"math/rand"
	"testing"
)

// compareMathRand fails t unless New(seed) draws what
// rand.New(rand.NewSource(seed)) draws: 3·rngLen raw words, so that every
// cooked word is read and tap and feed each wrap at least twice, then the
// float, normal, exponential and bounded-integer draws rand.Rand derives
// from them.
func compareMathRand(t *testing.T, seed int64) {
	t.Helper()
	got := New(seed).r
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < 3*rngLen; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, g, w)
		}
	}
	for i := 0; i < 200; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.Intn(97), want.Intn(97); g != w {
			t.Fatalf("seed %d: Intn(97) draw %d = %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Int63n(1<<40+3), want.Int63n(1<<40+3); g != w {
			t.Fatalf("seed %d: Int63n draw %d = %d, math/rand %d", seed, i, g, w)
		}
	}
}

// TestNewMatchesMathRandItemSeeds runs the seeds the parallel sweeps use.
func TestNewMatchesMathRandItemSeeds(t *testing.T) {
	for i := 0; i < 2000; i++ {
		compareMathRand(t, ItemSeed(7, i))
	}
}

func FuzzNewMatchesMathRand(f *testing.F) {
	// The seed normalization's edges: zero (replaced by 89482311), the
	// replacement itself, negatives, multiples of 2³¹−1 (which reduce to
	// zero) and the int64 extremes.
	for _, seed := range []int64{
		0, -1, 1, 89482311, int32max, -int32max, 2 * int32max, int32max - 1,
		math.MinInt64, math.MaxInt64,
	} {
		f.Add(seed)
	}
	f.Fuzz(compareMathRand)
}

// TestNewAllocs pins New at the Source, which holds the generator, and
// the rand.Rand over it: the two allocations rand.New(rand.NewSource(seed))
// makes, one fewer than New made when it called them.
func TestNewAllocs(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		New(seed)
	})
	if allocs > 2 {
		t.Errorf("New makes %v allocations, want at most 2", allocs)
	}
}

var sinkSource *Source

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = New(int64(i))
	}
}

var sinkRand *rand.Rand

// BenchmarkNewMathRand is BenchmarkNew's reference: the math/rand
// construction New replaced, which seeds through seedrand's divisions.
func BenchmarkNewMathRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRand = rand.New(rand.NewSource(int64(i)))
	}
}
