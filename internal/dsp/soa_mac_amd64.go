package dsp

// useAVX2 and useAVX512 select the assembly kernels. They are set once,
// at package init, from the CPU's feature bits.
var useAVX2, useAVX512 = x86Features()

// firFilterSoAVec runs firFilterSoA's vector body over the first outputs
// and reports how many it wrote: len(dst)&^7 in ZMM tiles of eight on
// hosts with AVX-512F, len(dst)&^3 in YMM tiles of four on hosts with
// AVX2, none otherwise. Both kernels accumulate with
// VMULPD/VSUBPD/VADDPD, which are exact per-lane IEEE operations (no FMA
// contraction), in firFilterSoAGo's order, so they give its bits.
func firFilterSoAVec(dst []complex128, xr, xi, hr, hi []float64, sub bool) int {
	m := 0
	switch {
	case useAVX512:
		m = len(dst) &^ 7
		firFilterSoAAVX512(dst[:m], xr, xi, hr, hi, sub)
	case useAVX2:
		m = len(dst) &^ 3
		firFilterSoAAVX2(dst[:m], xr, xi, hr, hi, sub)
	}
	return m
}

// deinterleaveVec runs Deinterleave's ZMM body over the first
// len(x)&^7 samples on hosts with AVX-512F and reports how many it
// split.
func deinterleaveVec(re, im []float64, x []complex128) int {
	if !useAVX512 {
		return 0
	}
	deinterleaveAVX512(re, im, x)
	return len(x) &^ 7
}

// firFilterSoAAVX512 is firFilterSoA over the first len(dst)&^7 outputs,
// in soa_mac_amd64.s. It reads len(hr) taps and xr/xi from index 0,
// unchecked; len(hr) ≥ 1.
//
//go:noescape
func firFilterSoAAVX512(dst []complex128, xr, xi, hr, hi []float64, sub bool)

// firFilterSoAAVX2 is firFilterSoA over the first len(dst)&^3 outputs,
// in soa_mac_amd64.s, with firFilterSoAAVX512's preconditions.
//
//go:noescape
func firFilterSoAAVX2(dst []complex128, xr, xi, hr, hi []float64, sub bool)

// deinterleaveAVX512 is Deinterleave over the first len(x)&^7 samples,
// in soa_mac_amd64.s; it writes re/im unchecked.
//
//go:noescape
func deinterleaveAVX512(re, im []float64, x []complex128)

// x86Features reports whether the CPU has AVX2 and AVX-512F, each only
// if the OS also saves the registers the kernel uses across context
// switches.
func x86Features() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state;
	// bits 5 to 7: the opmask, upper ZMM0–15 and ZMM16–31 state.
	x := xcr0()
	_, ebx, _, _ := cpuid(7, 0)
	return x&6 == 6 && ebx&(1<<5) != 0, x&0xE6 == 0xE6 && ebx&(1<<16) != 0
}

// cpuid and xcr0 (XGETBV with ECX = 0) are in soa_mac_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xcr0() uint32
