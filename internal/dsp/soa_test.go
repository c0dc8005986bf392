package dsp

import (
	"math/rand"
	"testing"
)

func randVec(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}

func split(x []complex128) (re, im []float64) {
	re = make([]float64, len(x))
	im = make([]float64, len(x))
	Deinterleave(re, im, x)
	return re, im
}

func TestInterleaveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 64, 255} {
		x := randVec(r, n)
		re, im := split(x)
		back := make([]complex128, n)
		Interleave(back, re, im)
		for i := range x {
			if back[i] != x[i] {
				t.Fatalf("n=%d: round trip mismatch at %d: %v != %v", n, i, back[i], x[i])
			}
		}
	}
}

// TestFIRFilterSoAMatchesReference is the property test of the SoA MAC
// kernel: across random block lengths and tap counts (odd lengths, single
// taps, zero taps) the planar kernel must match the streaming complex128
// direct form bit for bit, starting from arbitrary delay-line history.
func TestFIRFilterSoAMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cases := []struct{ taps, n int }{
		{0, 16}, {1, 1}, {1, 17}, {2, 3}, {3, 33}, {7, 101}, {8, 64},
		{15, 255}, {16, 256}, {120, 1024},
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, struct{ taps, n int }{1 + r.Intn(64), 1 + r.Intn(512)})
	}
	for _, tc := range cases {
		taps := randVec(r, tc.taps)
		hist := randVec(r, maxInt(tc.taps-1, 0))
		block := randVec(r, tc.n)

		// Reference: the per-sample direct form with the history pushed in.
		var want []complex128
		if tc.taps == 0 {
			want = make([]complex128, tc.n)
		} else {
			f := NewFIR(taps)
			for _, v := range hist {
				f.Push(v)
			}
			want = f.Process(block)
		}

		hr, hi := split(taps)
		ext := append(append([]complex128{}, hist...), block...)
		xr, xi := split(ext)
		yr := make([]float64, tc.n)
		yi := make([]float64, tc.n)
		if tc.taps == 0 {
			FIRFilterSoA(yr, yi, nil, nil, hr, hi)
		} else {
			FIRFilterSoA(yr, yi, xr, xi, hr, hi)
		}
		got := make([]complex128, tc.n)
		Interleave(got, yr, yi)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("taps=%d n=%d: sample %d = %v, want %v (bit-exact)", tc.taps, tc.n, j, got[j], want[j])
			}
		}
	}
}

func TestSubInPlaceSoAMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randVec(r, 129)
	b := randVec(r, 129)
	want := Sub(a, b)
	br, bi := split(b)
	SubInPlaceSoA(a, br, bi)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("mismatch at %d: %v != %v", i, a[i], want[i])
		}
	}
}

// TestFIRRecentSoAMatchesRecent pins the planar delay-line handoff to the
// interleaved one: RecentSoA reads what Recent reads, and LoadRecentSoA
// leaves the filter in the state LoadRecent does.
func TestFIRRecentSoAMatchesRecent(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	taps := randVec(r, 9)
	hist := randVec(r, 9)
	a, b := NewFIR(taps), NewFIR(taps)
	for _, v := range randVec(r, 5) {
		a.Push(v)
	}
	want := make([]complex128, 6)
	a.Recent(want)
	re, im := make([]float64, 6), make([]float64, 6)
	a.RecentSoA(re, im)
	for i := range want {
		if complex(re[i], im[i]) != want[i] {
			t.Fatalf("RecentSoA[%d] = %v, want %v", i, complex(re[i], im[i]), want[i])
		}
	}
	a.LoadRecent(hist)
	hr, hi := split(hist)
	b.LoadRecentSoA(hr, hi)
	for _, v := range randVec(r, 20) {
		if ya, yb := a.Push(v), b.Push(v); ya != yb {
			t.Fatalf("after LoadRecentSoA: %v, LoadRecent: %v", yb, ya)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
