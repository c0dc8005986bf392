package dsp

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
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

// alignedFloats returns n floats that start off floats (0 to 7) past a
// 64-byte boundary.
func alignedFloats(n, off int) []float64 {
	buf := make([]float64, n+off+8)
	s := int(-uintptr(unsafe.Pointer(&buf[0]))%64/8) + off
	return buf[s : s+n]
}

// alignedComplex returns n samples that start off samples (0 to 7) past
// a 64-byte boundary.
func alignedComplex(n, off int) []complex128 {
	buf := alignedFloats(2*(n+off)+1, 0)
	return unsafe.Slice((*complex128)(unsafe.Pointer(&buf[0])), n+off)[off:]
}

// TestFIRFilterSoAMatchesReference is the property test of the planar
// FIR kernel: across random block lengths and tap counts (odd lengths,
// single taps) the kernel must match the streaming complex128 direct
// form bit for bit, starting from arbitrary delay-line history.
func TestFIRFilterSoAMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cases := []struct{ taps, n int }{
		{1, 0}, {1, 1}, {1, 17}, {2, 3}, {3, 33}, {7, 101}, {8, 64},
		{15, 255}, {16, 256}, {120, 1024},
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, struct{ taps, n int }{1 + r.Intn(64), 1 + r.Intn(512)})
	}
	for _, tc := range cases {
		taps := randVec(r, tc.taps)
		hist := randVec(r, tc.taps-1)
		block := randVec(r, tc.n)

		// Reference: the per-sample direct form with the history pushed in.
		f := NewFIR(taps)
		for _, v := range hist {
			f.Push(v)
		}
		want := f.Process(block)

		hr, hi := split(taps)
		xr, xi := split(append(hist, block...))
		got := make([]complex128, tc.n)
		firFilterSoA(got, xr, xi, hr, hi, false)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("taps=%d n=%d: sample %d = %v, want %v (bit-exact)", tc.taps, tc.n, j, got[j], want[j])
			}
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
		// The block region of each scratch plane starts on a cache line.
		if ntaps >= 4 {
			xr, xi := canc.loadPlanar(ref[:33])
			for _, p := range [][]float64{xr[ntaps-1:], xi[ntaps-1:]} {
				if a := uintptr(unsafe.Pointer(&p[0])) % 64; a != 0 {
					t.Fatalf("%d taps: a plane's block region is %d bytes past a 64-byte boundary", ntaps, a)
				}
			}
		}
	}
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
// remainder of the four-tile and single-tile loops of eight (AVX-512) and
// of the two-tile and single-tile loops of four (AVX2), and a
// served-size block.
func kernelLengths() []int {
	lengths := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	return append(lengths, 4096)
}

// sameBits reports whether a and b are the same float64 bit pattern, or
// both NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelGuard fills the samples past a kernel's destination, which no
// body may write.
const kernelGuard = complex(-7.25, 3.5)

// runKernel runs firFilterSoA on a copy of block placed off samples past
// a 64-byte boundary and returns the copy, failing t if a guard sample
// after it changed.
func runKernel(t *testing.T, block []complex128, off int, xr, xi, hr, hi []float64, sub bool) []complex128 {
	t.Helper()
	n := len(block)
	dst := alignedComplex(n+2, off)
	copy(dst, block)
	dst[n], dst[n+1] = kernelGuard, kernelGuard
	firFilterSoA(dst[:n], xr, xi, hr, hi, sub)
	if dst[n] != kernelGuard || dst[n+1] != kernelGuard {
		t.Fatalf("%d taps, n=%d, sub=%v: the kernel wrote past its block", len(hr), n, sub)
	}
	return dst[:n]
}

// TestFIRFilterSoABodies runs firFilterSoA once per kernel body the host
// supports (forEachBody sets the package's dispatch), in the store and
// the subtract mode, and pins the Go body to FIR.Push and every other
// body to the Go body, bit for bit. The planes are laid out as
// FIR.loadPlanar lays them out, and tap counts 1 to 33 reach every
// history pad; kernelLengths reach every tile-loop remainder; the
// destination block sits 0 to 7 samples past a 64-byte boundary, in
// rotation. ±0, ±Inf, subnormals and NaN are among the inputs and taps;
// a NaN compares only as NaN: the compiler may commute the Go body's
// operands, and x86 propagates the first operand's NaN payload. Two
// final cases, whose real or imaginary products are all −0, pin the
// accumulators' +0 start.
func TestFIRFilterSoABodies(t *testing.T) {
	var names []string
	forEachBody(func(body string) { names = append(names, body) })
	t.Logf("bodies run: %v", names)

	r := rand.New(rand.NewSource(13))
	off := 0
	for taps := 1; taps <= 33; taps++ {
		for _, n := range kernelLengths() {
			for trial := 0; trial < 3; trial++ { // clean, special inputs, special inputs and taps
				hr, hi := make([]float64, taps), make([]float64, taps)
				fillKernel(r, hr, trial == 2)
				fillKernel(r, hi, trial == 2)
				// The planes as FIR.loadPlanar lays them out: the history
				// padded so that the block region starts on a cache line.
				pad := pad8(taps-1) - (taps - 1)
				xr, xi := alignedFloats(n+taps-1, pad), alignedFloats(n+taps-1, pad)
				fillKernel(r, xr, trial > 0)
				fillKernel(r, xi, trial > 0)
				br, bi := make([]float64, n), make([]float64, n)
				fillKernel(r, br, trial > 0)
				fillKernel(r, bi, trial > 0)
				block := make([]complex128, n)
				for i := range block {
					block[i] = complex(br[i], bi[i])
				}

				// Push reference: the history pushed in, then the block.
				h := make([]complex128, taps)
				for k := range h {
					h[k] = complex(hr[k], hi[k])
				}
				f := NewFIR(h)
				for j := 0; j < taps-1; j++ {
					f.Push(complex(xr[j], xi[j]))
				}
				pushF, pushC := make([]complex128, n), make([]complex128, n)
				for i := range pushF {
					y := f.Push(complex(xr[taps-1+i], xi[taps-1+i]))
					pushF[i], pushC[i] = y, block[i]-y
				}

				for _, sub := range []bool{false, true} {
					want, wantFrom := pushF, "Push"
					if sub {
						want = pushC
					}
					forEachBody(func(body string) {
						got := runKernel(t, block, off%8, xr, xi, hr, hi, sub)
						off++
						for i := range got {
							if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
								t.Fatalf("%s body, %d taps, n=%d, trial %d, sub=%v: output %d = %v, %s %v",
									body, taps, n, trial, sub, i, got[i], wantFrom, want[i])
							}
						}
						if body == "go" {
							want, wantFrom = got, "Go body"
						}
					})
				}
			}
		}
	}

	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		h, x complex128
		what string
	}{
		{complex(1, 0), complex(negZero, 0), "real"},
		{complex(1, negZero), complex(0, negZero), "imaginary"},
	} {
		const taps, n = 5, 43
		hr, hi := make([]float64, taps), make([]float64, taps)
		for k := range hr {
			hr[k], hi[k] = real(c.h), imag(c.h)
		}
		xr, xi := make([]float64, n+taps-1), make([]float64, n+taps-1)
		for j := range xr {
			xr[j], xi[j] = real(c.x), imag(c.x)
		}
		block := make([]complex128, n)
		for i := range block {
			block[i] = complex(negZero, negZero)
		}
		forEachBody(func(body string) {
			// +0 + (−0) is +0, so a sum that starts from +0 stays +0 and
			// the block's −0 minus it stays −0; a sum that started from
			// the first product would be −0 and flip both.
			for _, sub := range []bool{false, true} {
				want := complex(0, 0)
				if sub {
					want = complex(negZero, negZero)
				}
				for i, v := range runKernel(t, block, 3, xr, xi, hr, hi, sub) {
					if math.Float64bits(real(v)) != math.Float64bits(real(want)) ||
						math.Float64bits(imag(v)) != math.Float64bits(imag(want)) {
						t.Fatalf("%s body, %s products all −0, sub=%v: output %d = %v, want %v",
							body, c.what, sub, i, v, want)
					}
				}
			}
		})
	}
}
