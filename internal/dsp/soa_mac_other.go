//go:build !amd64

package dsp

// useAVX2 and useAVX512 are false off amd64: the Go body runs every pass.
const useAVX2, useAVX512 = false, false

// firMAC4 accumulates four consecutive taps into yr/yi across the whole
// block; see soa_mac_amd64.go for the contract.
func firMAC4(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64) {
	firMAC4Go(yr, yi, xr, xi, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i)
}

// firMAC8 is never called off amd64 (useAVX512 is false); it exists so
// FIRFilterSoA's dispatch compiles.
func firMAC8(yr, yi, xr, xi, hr, hi []float64) {
	firMAC8Go(yr, yi, xr, xi, hr, hi)
}
