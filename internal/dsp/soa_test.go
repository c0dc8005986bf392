package dsp

import (
	"math"
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

// TestFIRBlockMethodsMatchPush pins FilterBlock and CancelBlock to the
// per-sample direct form bit for bit, over one signal fed in segments
// that straddle minPlanarBlock, so the two paths hand the delay line to
// each other in both directions, and checks that each block reports the
// planar kernel exactly when it has at least minPlanarBlock samples
// through at least minPlanarTaps taps.
func TestFIRBlockMethodsMatchPush(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	segments := []int{1, 31, 32, 33, 4096, 33, 32, 31, 1}
	total := 0
	for _, n := range segments {
		total += n
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, ntaps := range []int{1, 3, 4, 5, 16, 24} {
		taps := randVec(r, ntaps)
		sig, ref := randVec(r, total), randVec(r, total)

		fOracle, cOracle := NewFIR(taps), NewFIR(taps)
		wantF := make([]complex128, total)
		wantC := make([]complex128, total)
		for i := range sig {
			wantF[i] = fOracle.Push(sig[i])
			wantC[i] = sig[i] - cOracle.Push(ref[i])
		}

		filt, canc := NewFIR(taps), NewFIR(taps)
		gotF := append([]complex128(nil), sig...)
		gotC := append([]complex128(nil), sig...)
		pos := 0
		for _, n := range segments {
			wantPlanar := n >= 32 && ntaps >= 4
			if p := filt.FilterBlock(gotF[pos : pos+n]); p != wantPlanar {
				t.Fatalf("%d taps, %d-sample FilterBlock: planar = %v, want %v", ntaps, n, p, wantPlanar)
			}
			if p := canc.CancelBlock(gotC[pos:pos+n], ref[pos:pos+n]); p != wantPlanar {
				t.Fatalf("%d taps, %d-sample CancelBlock: planar = %v, want %v", ntaps, n, p, wantPlanar)
			}
			pos += n
		}
		for i := range wantF {
			if !same(gotF[i], wantF[i]) {
				t.Fatalf("%d taps: FilterBlock sample %d = %v, Push %v (bit-exact)", ntaps, i, gotF[i], wantF[i])
			}
			if !same(gotC[i], wantC[i]) {
				t.Fatalf("%d taps: CancelBlock sample %d = %v, Push %v (bit-exact)", ntaps, i, gotC[i], wantC[i])
			}
		}
		// The delay line the blocks leave is the one pushing leaves.
		for _, v := range randVec(r, 2*ntaps) {
			if a, b := filt.Push(v), fOracle.Push(v); !same(a, b) {
				t.Fatalf("%d taps: Push after the blocks = %v, after pushing = %v", ntaps, a, b)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// kernelSpecials are the IEEE edge values the kernel-body tests mix into
// their inputs and taps.
var kernelSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1040, math.NaN()}

// fillKernel fills v with Gaussians from r, with one element in eight
// (when special) replaced by one of kernelSpecials.
func fillKernel(r *rand.Rand, v []float64, special bool) {
	for i := range v {
		v[i] = r.NormFloat64()
		if special && r.Intn(8) == 0 {
			v[i] = kernelSpecials[r.Intn(len(kernelSpecials))]
		}
	}
}

// kernelLengths are the output lengths the kernel-body tests run: every
// tail of an eight- or four-wide loop, and a served-size block.
func kernelLengths() []int {
	lengths := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	return append(lengths, 4096)
}

// TestFirMAC4MatchesGoBody pins the dispatching firMAC4 (the AVX2 kernel
// plus the Go body's tail on hosts with AVX2, the Go body alone
// otherwise) to the Go body bit for bit, over every tail length and a
// served-size pass, with ±0, ±Inf, subnormals and NaN among the inputs
// and taps. A NaN compares only as NaN: the compiler may commute the Go
// body's operands, and x86 propagates the first operand's NaN payload.
func TestFirMAC4MatchesGoBody(t *testing.T) {
	t.Logf("firMAC4 kernel: avx2=%v", useAVX2)
	r := rand.New(rand.NewSource(11))
	h := make([]float64, 8)
	for _, n := range kernelLengths() {
		for trial := 0; trial < 4; trial++ {
			special := trial > 0
			fillKernel(r, h, trial >= 2)
			xr, xi := make([]float64, n+3), make([]float64, n+3)
			fillKernel(r, xr, special)
			fillKernel(r, xi, special)
			wr, wi := make([]float64, n), make([]float64, n)
			fillKernel(r, wr, special)
			fillKernel(r, wi, special)
			gr, gi := append([]float64(nil), wr...), append([]float64(nil), wi...)

			firMAC4Go(wr, wi, xr, xi, h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7])
			firMAC4(gr, gi, xr, xi, h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7])
			for i := 0; i < n; i++ {
				if !sameBits(gr[i], wr[i]) || !sameBits(gi[i], wi[i]) {
					t.Fatalf("n=%d trial %d: output %d = (%v, %v), Go body (%v, %v)",
						n, trial, i, gr[i], gi[i], wr[i], wi[i])
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same float64 bit pattern, or
// both NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
