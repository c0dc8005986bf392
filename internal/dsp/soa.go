package dsp

// SoA (structure-of-arrays) kernels: the FIR's hot inner loop expressed
// over planar float64 re/im slices instead of []complex128. Splitting
// the components lets the tap loop stream two contiguous float64 arrays
// with no per-sample branches or calls, which is what the real-time
// multi-session path needs at 20 Msamples/s.
//
// The kernels never allocate, and every buffer is caller-owned. The
// input is deinterleaved once per block at ingress (Deinterleave); the
// FIR kernel writes its output straight into the interleaved block, so
// the []complex128 stage API — and the golden vectors pinned to it — are
// untouched.
//
// Numerics: the FIR kernel accumulates in the same order as the
// complex128 direct form it replaces (ascending tap index, naive
// complex-multiply expansion, a running sum that starts from +0), so
// results are bit-exact on targets without implicit FMA contraction
// (amd64 among them) and within a few ulps otherwise.

// Deinterleave splits x into planar re/im components. len(re) and
// len(im) must equal len(x). Every bit survives, NaN payloads included
// (enforced by fuzz). On amd64 hosts with AVX-512F a ZMM body splits
// eight samples per iteration and the Go body the last len(x)%8.
func Deinterleave(re, im []float64, x []complex128) {
	if len(re) != len(x) || len(im) != len(x) {
		panic("dsp: Deinterleave length mismatch")
	}
	m := deinterleaveVec(re, im, x)
	deinterleaveGo(re[m:], im[m:], x[m:])
}

// firFilterSoA is the planar FIR kernel: for each i in [0, len(dst)) it
// computes y[i] = Σ_k h[k]·x[T−1+i−k], where x carries T−1 samples of
// input history followed by the block (len(xr) = len(dst)+T−1, T =
// len(hr) ≥ 1), and stores y[i] into dst[i] or, with sub, subtracts it:
// dst[i] −= y[i]. Each output accumulates its products in exactly the
// order of the per-sample direct form (FIR.Push), in registers, so dst
// is written once per output.
//
// A vector body takes the outputs it can (AVX-512F or AVX2 on amd64,
// chosen by CPUID at package init) and the Go body firFilterSoAGo the
// rest; both give the same bits.
func firFilterSoA(dst []complex128, xr, xi, hr, hi []float64, sub bool) {
	n, t := len(dst), len(hr)
	if t == 0 || len(hi) != t || len(xr) != n+t-1 || len(xi) != n+t-1 {
		panic("dsp: firFilterSoA needs taps and len(x) == len(dst)+taps-1")
	}
	m := firFilterSoAVec(dst, xr, xi, hr, hi, sub)
	firFilterSoAGo(dst[m:], xr[m:], xi[m:], hr, hi, sub)
}
