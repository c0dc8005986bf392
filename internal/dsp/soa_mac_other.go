//go:build !amd64

package dsp

// useAVX2 is false off amd64: the Go body runs every pass.
const useAVX2 = false

// firMAC4 accumulates four consecutive taps into yr/yi across the whole
// block; see soa_mac_amd64.go for the contract.
func firMAC4(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64) {
	firMAC4Go(yr, yi, xr, xi, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i)
}
