// Package dsp provides the digital signal processing primitives that the
// FastForward simulation is built on: complex baseband vectors, dB/linear
// conversions, power and SNR measurement, and elementary waveform
// manipulation. All signals are complex128 IQ sample slices at an implicit,
// caller-managed sample rate.
package dsp

import (
	"math"
	"math/cmplx"
)

// DB converts a linear power ratio to decibels.
func DB(linear float64) float64 {
	if linear <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(linear)
}

// Linear converts decibels to a linear power ratio.
func Linear(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmplitudeFromDB converts decibels to a linear amplitude (voltage) ratio.
func AmplitudeFromDB(db float64) float64 {
	return math.Pow(10, db/20)
}

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 {
	return DB(watts) + 30
}

// WattsFromDBm converts dBm to watts.
func WattsFromDBm(dbm float64) float64 {
	return Linear(dbm - 30)
}

// Power returns the mean squared magnitude of x (average sample power).
// Power of an empty slice is 0.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return sum / float64(len(x))
}

// Energy returns the total energy (sum of squared magnitudes) of x.
func Energy(x []complex128) float64 {
	var sum float64
	for _, v := range x {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return sum
}

// PowerDB returns the average sample power of x in dB (relative to unit power).
func PowerDB(x []complex128) float64 { return DB(Power(x)) }

// Scale returns x scaled by the real gain g.
func Scale(x []complex128, g float64) []complex128 {
	y := make([]complex128, len(x))
	c := complex(g, 0)
	for i, v := range x {
		y[i] = v * c
	}
	return y
}

// ScaleC returns x scaled by the complex gain g.
func ScaleC(x []complex128, g complex128) []complex128 {
	y := make([]complex128, len(x))
	for i, v := range x {
		y[i] = v * g
	}
	return y
}

// ScaleInPlace multiplies x by the real gain g in place.
func ScaleInPlace(x []complex128, g float64) {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
}

// ScaleCInPlace multiplies x by the complex gain g in place.
func ScaleCInPlace(x []complex128, g complex128) {
	for i := range x {
		x[i] *= g
	}
}

// Add returns the elementwise sum of a and b, which must have equal length.
func Add(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("dsp: Add length mismatch")
	}
	y := make([]complex128, len(a))
	for i := range a {
		y[i] = a[i] + b[i]
	}
	return y
}

// AddInPlace adds b into a. b may be shorter than a.
func AddInPlace(a, b []complex128) {
	n := len(b)
	if len(a) < n {
		n = len(a)
	}
	for i := 0; i < n; i++ {
		a[i] += b[i]
	}
}

// Sub returns a-b elementwise; slices must have equal length.
func Sub(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("dsp: Sub length mismatch")
	}
	y := make([]complex128, len(a))
	for i := range a {
		y[i] = a[i] - b[i]
	}
	return y
}

// SubInPlace subtracts b from a in place. b may be shorter than a.
func SubInPlace(a, b []complex128) {
	n := len(b)
	if len(a) < n {
		n = len(a)
	}
	for i := 0; i < n; i++ {
		a[i] -= b[i]
	}
}

// Mul returns the elementwise (Hadamard) product of a and b.
func Mul(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("dsp: Mul length mismatch")
	}
	y := make([]complex128, len(a))
	for i := range a {
		y[i] = a[i] * b[i]
	}
	return y
}

// MulInto writes the elementwise product of a and b into dst (all equal
// lengths; dst may alias either operand).
func MulInto(dst, a, b []complex128) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("dsp: MulInto length mismatch")
	}
	for i := range a {
		dst[i] = a[i] * b[i]
	}
}

// Dot returns the inner product sum(a[i] * conj(b[i])).
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("dsp: Dot length mismatch")
	}
	var s complex128
	for i := range a {
		s += a[i] * cmplx.Conj(b[i])
	}
	return s
}

// Delay returns x delayed by n whole samples, zero-padded at the front and
// truncated to the original length. A negative n advances the signal.
func Delay(x []complex128, n int) []complex128 {
	y := make([]complex128, len(x))
	if n >= 0 {
		copy(y[min(n, len(y)):], x)
	} else {
		if -n < len(x) {
			copy(y, x[-n:])
		}
	}
	return y
}

// Convolve returns the full linear convolution of x and h
// (length len(x)+len(h)-1). For long signals prefer fft-based convolution;
// this direct form is used for filters with few taps.
func Convolve(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	y := make([]complex128, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			y[i+j] += xv * hv
		}
	}
	return y
}

// FilterSame convolves x with h and returns the first len(x) samples — the
// causal "same-size" filtering used throughout the relay pipeline.
func FilterSame(x, h []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	y := make([]complex128, len(x))
	for i := range x {
		var acc complex128
		kmax := len(h)
		if kmax > i+1 {
			kmax = i + 1
		}
		for k := 0; k < kmax; k++ {
			acc += h[k] * x[i-k]
		}
		y[i] = acc
	}
	return y
}

// CrossCorrelate returns c[k] = sum_n x[n+k] * conj(ref[n]) for
// k in [0, len(x)-len(ref)]. It is the sliding correlation used by packet
// detection and signature matching. Returns nil if ref is longer than x.
func CrossCorrelate(x, ref []complex128) []complex128 {
	if len(ref) == 0 || len(ref) > len(x) {
		return nil
	}
	out := make([]complex128, len(x)-len(ref)+1)
	for k := range out {
		var s complex128
		for n, r := range ref {
			s += x[k+n] * cmplx.Conj(r)
		}
		out[k] = s
	}
	return out
}

// NormalizedCorrelationPeak returns the peak index and the normalized peak
// magnitude (0..1) of the correlation of x against ref, where 1 means a
// perfect scaled copy of ref occurs in x at the returned offset.
func NormalizedCorrelationPeak(x, ref []complex128) (idx int, peak float64) {
	c := CrossCorrelate(x, ref)
	if c == nil {
		return -1, 0
	}
	refE := Energy(ref)
	best := -1.0
	for k, v := range c {
		seg := x[k : k+len(ref)]
		e := Energy(seg)
		if e <= 0 || refE <= 0 {
			continue
		}
		m := cmplx.Abs(v) / math.Sqrt(e*refE)
		if m > best {
			best = m
			idx = k
		}
	}
	if best < 0 {
		return -1, 0
	}
	return idx, best
}

// SNRdB computes the signal-to-noise ratio in dB given a clean reference and
// a received copy (equal lengths): the residual received-reference is treated
// as noise. The received signal must already be scaled/aligned.
func SNRdB(reference, received []complex128) float64 {
	if len(reference) != len(received) {
		panic("dsp: SNRdB length mismatch")
	}
	sig := Power(reference)
	res := Power(Sub(received, reference))
	if res == 0 {
		return math.Inf(1)
	}
	return DB(sig / res)
}

// ApplyCFO applies a carrier frequency offset of cfoHz to x sampled at
// sampleRate Hz, starting from phase startPhase (radians). It returns the
// rotated signal and the phase after the last sample, so successive blocks
// can be rotated continuously.
func ApplyCFO(x []complex128, cfoHz, sampleRate, startPhase float64) (y []complex128, endPhase float64) {
	y = make([]complex128, len(x))
	step := 2 * math.Pi * cfoHz / sampleRate
	ph := startPhase
	for i, v := range x {
		y[i] = v * cmplx.Exp(complex(0, ph))
		ph += step
	}
	return y, ph
}

// Rotate returns x with every sample rotated by theta radians.
func Rotate(x []complex128, theta float64) []complex128 {
	return ScaleC(x, cmplx.Exp(complex(0, theta)))
}

// Clone returns a copy of x.
func Clone(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	copy(y, x)
	return y
}

// MaxAbs returns the largest sample magnitude in x.
func MaxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}
