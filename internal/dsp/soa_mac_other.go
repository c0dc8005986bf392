//go:build !amd64

package dsp

// firFilterSoAVec has no vector body off amd64: the Go body runs every
// output.
func firFilterSoAVec(dst []complex128, xr, xi, hr, hi []float64, sub bool) int { return 0 }

// deinterleaveVec has no vector body off amd64.
func deinterleaveVec(re, im []float64, x []complex128) int { return 0 }
