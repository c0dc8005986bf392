package dsp_test

import (
	"fmt"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/rng"
)

// BenchmarkFIRKernel isolates the FIR MAC inner loop, excluding the
// pipeline layer's staging and conversion overhead. push and soa run the
// 120-tap canceller over 8192 samples, on the per-sample direct form
// (FIR.Push) and on the planar SoA kernel; soa-TxN runs the planar
// kernel at the served chain's shapes, its 24- and 16-tap filters over
// 4096- and 64-sample blocks.
func BenchmarkFIRKernel(b *testing.B) {
	const nTaps, nSamp = 120, 8192
	src := rng.New(1)
	taps := make([]complex128, nTaps)
	for i := range taps {
		taps[i] = src.ComplexGaussian(1.0 / nTaps)
	}
	x := src.NoiseVector(nSamp+nTaps-1, 1)

	b.Run("push", func(b *testing.B) {
		f := dsp.NewFIR(taps)
		out := make([]complex128, nSamp)
		b.ReportAllocs()
		b.SetBytes(nSamp * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < nSamp; j++ {
				out[j] = f.Push(x[j])
			}
		}
	})
	b.Run("soa", func(b *testing.B) { benchSoA(b, taps, nSamp, x) })
	for _, shape := range []struct{ taps, n int }{{24, 4096}, {16, 4096}, {24, 64}, {16, 64}} {
		name := fmt.Sprintf("soa-%dx%d", shape.taps, shape.n)
		b.Run(name, func(b *testing.B) { benchSoA(b, taps[:shape.taps], shape.n, x) })
	}
}

// benchSoA times FIRFilterSoA of n outputs through taps, reading the
// first n+len(taps)-1 samples of x.
func benchSoA(b *testing.B, taps []complex128, n int, x []complex128) {
	hr := make([]float64, len(taps))
	hi := make([]float64, len(taps))
	dsp.Deinterleave(hr, hi, taps)
	xr := make([]float64, n+len(taps)-1)
	xi := make([]float64, len(xr))
	dsp.Deinterleave(xr, xi, x[:len(xr)])
	yr := make([]float64, n)
	yi := make([]float64, n)
	b.ReportAllocs()
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.FIRFilterSoA(yr, yi, xr, xi, hr, hi)
	}
}
