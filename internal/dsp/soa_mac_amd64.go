package dsp

// useAVX2 and useAVX512 select the assembly kernels. They are set once,
// at package init, from the CPU's feature bits.
var useAVX2, useAVX512 = x86Features()

// firMAC4 accumulates four consecutive taps into yr/yi across the whole
// block: for each i, yr[i]/yi[i] gain the tap contributions in ascending
// tap order (h0 first), with each contribution computed as
// hr*a − hi*b / hr*b + hi*a exactly like the direct form. xr/xi start at
// the window of the LAST of the four taps (the earliest input sample);
// tap j reads xr[i+3−j]. len(xr) and len(xi) must be ≥ len(yr)+3.
//
// On amd64 hosts with AVX2 the assembly kernel runs four outputs per
// iteration and the Go body the last len(yr)%4; without AVX2 the Go body
// runs the whole pass. VMULPD/VSUBPD/VADDPD are exact per-lane IEEE ops
// (no FMA contraction), so both give the same bits.
func firMAC4(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64) {
	m := 0
	if useAVX2 {
		m = len(yr) &^ 3
		firMAC4AVX2(yr, yi, xr, xi, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i)
	}
	firMAC4Go(yr[m:], yi[m:], xr[m:], xi[m:], h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i)
}

// firMAC8 is firMAC4 over eight consecutive taps, hr/hi[0] through [7],
// with xr/xi starting at the window of tap 7; len(xr) and len(xi) must
// be ≥ len(yr)+7. It runs only on hosts with AVX-512F: the ZMM kernel
// runs eight outputs per iteration and firMAC8Go the last len(yr)%8.
func firMAC8(yr, yi, xr, xi, hr, hi []float64) {
	m := len(yr) &^ 7
	firMAC8AVX512(yr, yi, xr, xi, hr, hi)
	firMAC8Go(yr[m:], yi[m:], xr[m:], xi[m:], hr, hi)
}

// firMAC4AVX2 is firMAC4 over the first len(yr)&^3 outputs, in
// soa_mac_amd64.s.
//
//go:noescape
func firMAC4AVX2(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64)

// firMAC8AVX512 is firMAC8 over the first len(yr)&^7 outputs, in
// soa_mac_amd64.s. It reads hr/hi[0] through [7] unchecked.
//
//go:noescape
func firMAC8AVX512(yr, yi, xr, xi, hr, hi []float64)

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
