// Package fft implements the fast Fourier transform used by the OFDM
// modem and frequency-domain channel analysis. It supports power-of-two
// lengths with an iterative radix-2 algorithm and arbitrary lengths via
// Bluestein's chirp-z transform.
//
// The modem calls fixed-length transforms millions of times per
// evaluation sweep, so all per-length precomputation — bit-reversal
// permutations, twiddle-factor tables, and Bluestein chirp/convolution
// kernels — is memoized in a process-wide plan cache. Forward and Inverse
// use cached plans transparently; the cache is safe for concurrent use by
// the parallel sweep engine (internal/par).
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Forward computes the discrete Fourier transform of x and returns a new
// slice: X[k] = sum_n x[n]·exp(-j2πkn/N).
func Forward(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	copy(y, x)
	transform(y, false)
	return y
}

// Inverse computes the inverse DFT of X (with 1/N normalization):
// x[n] = (1/N)·sum_k X[k]·exp(+j2πkn/N).
func Inverse(X []complex128) []complex128 {
	y := make([]complex128, len(X))
	copy(y, X)
	transform(y, true)
	n := complex(float64(len(y)), 0)
	for i := range y {
		y[i] /= n
	}
	return y
}

// transform performs an in-place DFT (inverse=false) or unnormalized inverse
// DFT (inverse=true).
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	p := planFor(n)
	if p.isPow2() {
		p.radix2(x, inverse)
		return
	}
	p.bluestein(x, inverse)
}

// plan holds every quantity a length-n transform needs that depends only
// on n: the radix-2 bit-reversal permutation and twiddle tables for
// power-of-two lengths, plus the Bluestein chirp and pre-transformed
// convolution kernels for everything else. Plans are immutable after
// construction and shared between goroutines.
type plan struct {
	n int

	// Power-of-two state (nil/empty for Bluestein lengths).
	rev []int        // bit-reversal permutation
	twF []complex128 // forward twiddles, stage-major: exp(-j2πk/size)
	twI []complex128 // inverse twiddles (exact conjugates of twF)

	// Bluestein state (nil for power-of-two lengths).
	chirp []complex128 // forward chirp exp(-jπi²/n); inverse uses the conjugate
	kerF  []complex128 // FFT of the forward convolution kernel, length m
	kerI  []complex128 // FFT of the inverse convolution kernel, length m
	sub   *plan        // power-of-two plan for the length-m convolution
	buf   sync.Pool    // scratch length-m buffers for the convolution
}

func (p *plan) isPow2() bool { return p.rev != nil }

// plans caches one immutable plan per transform length. sync.Map fits the
// access pattern exactly: written once per length, then read millions of
// times from many goroutines.
var plans sync.Map // map[int]*plan

// planFor returns the cached plan for length n, building it on first use.
// Concurrent first calls may both build; LoadOrStore keeps one winner, so
// every caller shares the same tables afterwards.
func planFor(n int) *plan {
	if v, ok := plans.Load(n); ok {
		return v.(*plan)
	}
	p := newPlan(n)
	v, _ := plans.LoadOrStore(n, p)
	return v.(*plan)
}

func newPlan(n int) *plan {
	if n&(n-1) == 0 {
		return newPow2Plan(n)
	}
	return newBluesteinPlan(n)
}

func newPow2Plan(n int) *plan {
	p := &plan{n: n}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	// Stage-major twiddles: for each butterfly size (2, 4, ..., n) the
	// half-size roots exp(-j2πk/size), evaluated directly per index rather
	// than by repeated multiplication — both faster at run time and free of
	// the accumulated rounding drift of the w *= wstep recurrence. The
	// inverse table holds the exact conjugates, so the inverse transform's
	// inner loop stays branch-free and inverse∘forward round-trips to
	// machine precision.
	p.twF = make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for k := 0; k < half; k++ {
			p.twF = append(p.twF, cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(size))))
		}
	}
	p.twI = make([]complex128, len(p.twF))
	for i, w := range p.twF {
		p.twI[i] = cmplx.Conj(w)
	}
	return p
}

func newBluesteinPlan(n int) *plan {
	p := &plan{n: n}
	// chirp[i] = exp(-jπ·i²/n); i*i may overflow for huge n, modulo 2n
	// keeps the angle exact.
	p.chirp = make([]complex128, n)
	for i := 0; i < n; i++ {
		k := (int64(i) * int64(i)) % int64(2*n)
		p.chirp[i] = cmplx.Exp(complex(0, -math.Pi*float64(k)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.sub = planFor(m)
	p.buf.New = func() interface{} { return make([]complex128, m) }
	// Convolution kernels, pre-transformed once: b[i] = conj(chirp[i])
	// mirrored into the tail, for both chirp signs.
	kernel := func(chirpConj func(i int) complex128) []complex128 {
		b := make([]complex128, m)
		for i := 0; i < n; i++ {
			b[i] = chirpConj(i)
		}
		for i := 1; i < n; i++ {
			b[m-i] = chirpConj(i)
		}
		p.sub.radix2(b, false)
		return b
	}
	p.kerF = kernel(func(i int) complex128 { return cmplx.Conj(p.chirp[i]) })
	p.kerI = kernel(func(i int) complex128 { return p.chirp[i] })
	return p
}

// radix2 runs the in-place iterative radix-2 transform using the plan's
// cached permutation and twiddle tables.
func (p *plan) radix2(x []complex128, inverse bool) {
	n := p.n
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	twiddles := p.twF
	if inverse {
		twiddles = p.twI
	}
	off := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := twiddles[off : off+half]
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * tw[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
		off += half
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform
// using the plan's cached chirp and pre-transformed convolution kernel.
func (p *plan) bluestein(x []complex128, inverse bool) {
	n, m := p.n, p.sub.n
	ker := p.kerF
	if inverse {
		ker = p.kerI
	}
	a := p.buf.Get().([]complex128)
	defer p.buf.Put(a)
	for i := 0; i < n; i++ {
		c := p.chirp[i]
		if inverse {
			c = cmplx.Conj(c)
		}
		a[i] = x[i] * c
	}
	for i := n; i < m; i++ {
		a[i] = 0
	}
	p.sub.radix2(a, false)
	for i := range a {
		a[i] *= ker[i]
	}
	p.sub.radix2(a, true)
	scale := complex(1/float64(m), 0)
	for i := 0; i < n; i++ {
		c := p.chirp[i]
		if inverse {
			c = cmplx.Conj(c)
		}
		x[i] = a[i] * scale * c
	}
}

// FrequencyResponse evaluates the frequency response of FIR taps h at the
// normalized frequency f (cycles per sample, -0.5..0.5):
// H(f) = sum_k h[k]·exp(-j2πfk).
func FrequencyResponse(h []complex128, f float64) complex128 {
	var acc complex128
	for k, v := range h {
		acc += v * cmplx.Exp(complex(0, -2*math.Pi*f*float64(k)))
	}
	return acc
}
