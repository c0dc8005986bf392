package dsp

// useAVX2 selects the assembly kernel. It is set once, at package init,
// from the CPU's feature bits.
var useAVX2 = hasAVX2()

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

// firMAC4AVX2 is firMAC4 over the first len(yr)&^3 outputs, in
// soa_mac_amd64.s.
//
//go:noescape
func firMAC4AVX2(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state.
	if xcr0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid and xcr0 (XGETBV with ECX = 0) are in soa_mac_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xcr0() uint32
