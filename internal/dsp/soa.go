package dsp

// SoA (structure-of-arrays) kernels: the hot inner loops of the streaming
// pipeline expressed over planar float64 re/im slices instead of
// []complex128. Splitting the components lets the tap loops stream two
// contiguous float64 arrays with no per-sample branches or calls, which
// is what the real-time multi-session path needs at 20 Msamples/s.
//
// The kernels are pure and `Into`-style: they never allocate, and every
// output buffer is caller-owned. Conversion happens at block ingress and
// egress (Deinterleave/Interleave), so the []complex128 stage API — and
// the golden vectors pinned to it — are untouched.
//
// Numerics: each kernel accumulates in the same order as the complex128
// direct form it replaces (ascending tap index, naive complex-multiply
// expansion), so results are bit-exact on targets without implicit FMA
// contraction (amd64 among them) and within a few ulps otherwise.

// Deinterleave splits x into planar re/im components. len(re) and
// len(im) must equal len(x).
func Deinterleave(re, im []float64, x []complex128) {
	if len(re) != len(x) || len(im) != len(x) {
		panic("dsp: Deinterleave length mismatch")
	}
	for i, v := range x {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// Interleave packs planar re/im components into dst. len(re) and len(im)
// must equal len(dst). Interleave(Deinterleave(x)) is bit-identical to x,
// including NaN payloads and infinities (enforced by fuzz).
func Interleave(dst []complex128, re, im []float64) {
	if len(re) != len(dst) || len(im) != len(dst) {
		panic("dsp: Interleave length mismatch")
	}
	for i := range dst {
		dst[i] = complex(re[i], im[i])
	}
}

// FIRFilterSoA is the planar FIR multiply-accumulate: it computes the
// causal convolution y[i] = Σ_k h[k]·x[T−1+i−k] for i in [0, len(yr)),
// where x carries T−1 samples of input history followed by the block
// (len(xr) = len(yr)+T−1). The taps iterate outermost in ascending k, so
// each output accumulates its products in exactly the order of the
// per-sample direct form (FIR.Push).
//
// With zero taps (len(hr) == 0) the output is zeroed and x is ignored.
func FIRFilterSoA(yr, yi, xr, xi, hr, hi []float64) {
	t := len(hr)
	n := len(yr)
	if len(hi) != t || len(yi) != n {
		panic("dsp: FIRFilterSoA component length mismatch")
	}
	yi = yi[:n] // bounds-check elimination in the MAC loops
	clear(yr)
	clear(yi)
	if t == 0 || n == 0 {
		return
	}
	if len(xr) != n+t-1 || len(xi) != n+t-1 {
		panic("dsp: FIRFilterSoA needs len(x) == len(y)+taps-1")
	}
	// Eight taps per pass on amd64 hosts with AVX-512F, then four taps per
	// pass: each pass loads and stores every output element once per
	// eight or four taps instead of once per tap (y traffic is where the
	// time goes; the MAC count is fixed). firMAC4 runs its pass with AVX2
	// on hosts that have it, the Go body otherwise (CPUID checks at
	// package init). Within a pass the accumulator adds taps k, k+1, ...
	// in order, so the ascending-k association is preserved exactly.
	k := 0
	if useAVX512 {
		for ; k+8 <= t; k += 8 {
			base := t - 8 - k
			firMAC8(yr, yi, xr[base:base+n+7], xi[base:base+n+7], hr[k:k+8], hi[k:k+8])
		}
	}
	for ; k+4 <= t; k += 4 {
		// Tap k+j reads x[t-1-(k+j)+i]; the pass base is tap k+3's
		// window (the earliest sample), and firMAC4 offsets from there.
		base := t - 4 - k
		firMAC4(yr, yi, xr[base:base+n+3], xi[base:base+n+3],
			hr[k], hi[k], hr[k+1], hi[k+1], hr[k+2], hi[k+2], hr[k+3], hi[k+3])
	}
	for ; k < t; k++ {
		hre, him := hr[k], hi[k]
		xre := xr[t-1-k : t-1-k+n]
		xim := xi[t-1-k : t-1-k+n]
		for i := 0; i < n; i++ {
			a, b := xre[i], xim[i]
			yr[i] += hre*a - him*b
			yi[i] += hre*b + him*a
		}
	}
}

// SubInPlaceSoA is the planar cancel subtract: dst[i] -= complex(re[i],
// im[i]). Complex subtraction is componentwise, so this is bit-identical
// to subtracting the interleaved operand, while sparing the caller a
// conversion pass over dst in each direction. All three slices must have
// equal length.
func SubInPlaceSoA(dst []complex128, re, im []float64) {
	n := len(dst)
	if len(re) != n || len(im) != n {
		panic("dsp: SubInPlaceSoA length mismatch")
	}
	for i := range dst {
		dst[i] -= complex(re[i], im[i])
	}
}
