package dsp

import (
	"math/rand"
	"testing"
)

// TestFIRFilterSoABodies runs FIRFilterSoA once per kernel body the host
// supports — AVX-512 eight-tap passes, AVX2 four-tap passes only, and the
// Go body only — by setting the package's dispatch variables, and pins
// each to the Go-only result bit for bit. Tap counts 1 to 33 run every
// t%8 and t%4 remainder; output lengths 0 to 67 and a served-size block
// run every n%8 tail. ±0, ±Inf, subnormals and NaN are among the inputs
// and taps; a NaN compares only as NaN (see TestFirMAC4MatchesGoBody).
func TestFIRFilterSoABodies(t *testing.T) {
	hostAVX2, hostAVX512 := useAVX2, useAVX512
	t.Cleanup(func() { useAVX2, useAVX512 = hostAVX2, hostAVX512 })
	type body struct {
		name         string
		avx2, avx512 bool
	}
	var bodies []body
	names := []string{"go"}
	if hostAVX512 {
		bodies = append(bodies, body{"avx512", hostAVX2, true})
		names = append(names, "avx512")
	}
	if hostAVX2 {
		bodies = append(bodies, body{"avx2", true, false})
		names = append(names, "avx2")
	}
	t.Logf("host: avx2=%v avx512=%v; bodies run: %v", hostAVX2, hostAVX512, names)

	r := rand.New(rand.NewSource(13))
	for taps := 1; taps <= 33; taps++ {
		for _, n := range kernelLengths() {
			for trial := 0; trial < 3; trial++ { // clean, special inputs, special inputs and taps
				hr, hi := make([]float64, taps), make([]float64, taps)
				fillKernel(r, hr, trial == 2)
				fillKernel(r, hi, trial == 2)
				xr, xi := make([]float64, n+taps-1), make([]float64, n+taps-1)
				fillKernel(r, xr, trial > 0)
				fillKernel(r, xi, trial > 0)

				useAVX2, useAVX512 = false, false
				wr, wi := make([]float64, n), make([]float64, n)
				FIRFilterSoA(wr, wi, xr, xi, hr, hi)
				for _, b := range bodies {
					useAVX2, useAVX512 = b.avx2, b.avx512
					gr, gi := make([]float64, n), make([]float64, n)
					FIRFilterSoA(gr, gi, xr, xi, hr, hi)
					for i := 0; i < n; i++ {
						if !sameBits(gr[i], wr[i]) || !sameBits(gi[i], wi[i]) {
							t.Fatalf("%s body, %d taps, n=%d, trial %d: output %d = (%v, %v), Go body (%v, %v)",
								b.name, taps, n, trial, i, gr[i], gi[i], wr[i], wi[i])
						}
					}
				}
			}
		}
	}
}
