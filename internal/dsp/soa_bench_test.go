package dsp_test

import (
	"fmt"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/rng"
)

// BenchmarkFIRKernel isolates dsp.FIR, excluding the pipeline layer's
// staging. push and soa run the 120-tap canceller over 8192 samples, on
// the per-sample direct form (FIR.Push) and through CancelBlock, whose
// planar kernel runs at that size. soa-TxN runs the served chain's
// shapes over 4096- and 64-sample blocks: its 24-tap canceller through
// CancelBlock and its 16-tap filter through FilterBlock. Each block call
// includes the planar conversion and the delay-line hand-off; a
// FilterBlock iteration also first copies the input into the block,
// which it filters in place.
func BenchmarkFIRKernel(b *testing.B) {
	const nTaps, nSamp = 120, 8192
	src := rng.New(1)
	taps := make([]complex128, nTaps)
	for i := range taps {
		taps[i] = src.ComplexGaussian(1.0 / nTaps)
	}
	x := src.NoiseVector(nSamp, 1)
	rx := src.NoiseVector(nSamp, 1)

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
	b.Run("soa", func(b *testing.B) { benchCancel(b, taps, x, rx) })
	for _, shape := range []struct{ taps, n int }{{24, 4096}, {16, 4096}, {24, 64}, {16, 64}} {
		name := fmt.Sprintf("soa-%dx%d", shape.taps, shape.n)
		if shape.taps == 24 {
			b.Run(name, func(b *testing.B) { benchCancel(b, taps[:24], x[:shape.n], rx[:shape.n]) })
		} else {
			b.Run(name, func(b *testing.B) { benchFilter(b, taps[:16], x[:shape.n]) })
		}
	}
}

// benchCancel times CancelBlock of ref from a block that starts as rx.
// The block keeps the running difference, which grows linearly and so
// stays clear of subnormals.
func benchCancel(b *testing.B, taps, ref, rx []complex128) {
	f := dsp.NewFIR(taps)
	block := append([]complex128(nil), rx...)
	f.CancelBlock(block, ref) // grow the scratch outside the timing
	b.ReportAllocs()
	b.SetBytes(int64(len(ref)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CancelBlock(block, ref)
	}
}

// benchFilter times FilterBlock of a block reset to x each iteration.
func benchFilter(b *testing.B, taps, x []complex128) {
	f := dsp.NewFIR(taps)
	block := make([]complex128, len(x))
	f.FilterBlock(block) // grow the scratch outside the timing
	b.ReportAllocs()
	b.SetBytes(int64(len(x)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(block, x)
		f.FilterBlock(block)
	}
}
