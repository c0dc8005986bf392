package dsp

import "unsafe"

// FIR is a streaming causal finite-impulse-response filter. It keeps its own
// delay line so that samples can be pushed one at a time, which is how the
// FastForward relay processes IQ streams: output y[n] = sum_k h[k]·x[n-k].
//
// The zero-delay property matters: tap 0 multiplies the *current* input, so a
// FIR with h[0] != 0 contributes to the output in the same sample instant it
// receives the input. This models the paper's causal cancellation filter,
// which adds no buffering delay (Sec 3.3, Fig 9a).
//
// FilterBlock and CancelBlock run a block on the planar kernel
// firFilterSoA or on the direct form, chosen by size; both paths are
// bit-exact with Push and share its delay line, so Push and block calls
// interleave freely.
type FIR struct {
	taps []complex128
	// line is the delay line stored twice over (length 2·T): every input
	// is written at pos and pos+T, so line[pos:pos+T] is always the most
	// recent T inputs, newest first, without a wrap branch in the tap
	// loop. The accumulation order is identical to the classic circular
	// buffer, so outputs are bit-exact with it.
	line []complex128
	pos  int
	// hr/hi are the taps in planar form, nil below minPlanarTaps taps.
	hr, hi []float64
	// scratch holds the planar history + block of the largest block
	// seen, laid out by planes. It grows once and is reused, and carries
	// no state between calls.
	scratch []float64
}

// minPlanarTaps is the filter length below which blocks stay on the
// direct form: with a handful of taps the conversion passes cost more
// than the planar MAC saves.
const minPlanarTaps = 4

// minPlanarBlock is the block length below which blocks stay on the
// direct form (the relay's one-sample feedback drive among them), whose
// per-sample cost is already low at those sizes.
const minPlanarBlock = 32

// NewFIR creates a streaming FIR with the given taps. The taps slice is
// copied. A nil or empty taps slice yields an all-zero filter with one tap.
func NewFIR(taps []complex128) *FIR {
	if len(taps) == 0 {
		taps = []complex128{0}
	}
	t := make([]complex128, len(taps))
	copy(t, taps)
	f := &FIR{
		taps: t,
		line: make([]complex128, 2*len(taps)),
	}
	if len(t) >= minPlanarTaps {
		f.hr, f.hi = make([]float64, len(t)), make([]float64, len(t))
		Deinterleave(f.hr, f.hi, t)
	}
	return f
}

// Push feeds one input sample and returns the corresponding output sample.
func (f *FIR) Push(x complex128) complex128 {
	t := len(f.taps)
	f.pos--
	if f.pos < 0 {
		f.pos = t - 1
	}
	f.line[f.pos] = x
	f.line[f.pos+t] = x
	var acc complex128
	win := f.line[f.pos : f.pos+t]
	for k, h := range f.taps {
		acc += h * win[k]
	}
	return acc
}

// Reset clears the delay line.
func (f *FIR) Reset() {
	for i := range f.line {
		f.line[i] = 0
	}
	f.pos = 0
}

// planarFor reports whether an n-sample block takes the planar kernel.
func (f *FIR) planarFor(n int) bool { return n >= minPlanarBlock && f.hr != nil }

// FilterBlock filters block in place, bit-exact with pushing it sample
// by sample, and reports whether the planar kernel ran.
func (f *FIR) FilterBlock(block []complex128) (planar bool) {
	n := len(block)
	if !f.planarFor(n) {
		for i, v := range block {
			block[i] = f.Push(v)
		}
		return false
	}
	if need := planarScratch(len(f.taps), n); cap(f.scratch) < need {
		f.scratch = make([]float64, need)
	}
	xr, xi := f.loadPlanar(block)
	firFilterSoA(block, xr, xi, f.hr, f.hi, false)
	return true
}

// CancelBlock is the causal canceller over a block: it pushes ref
// through the filter and subtracts the output from block, block[i] −=
// Σ_k h[k]·ref[i−k], bit-exact with block[i] − Push(ref[i]) sample by
// sample. len(ref) must equal len(block). It reports whether the planar
// kernel ran.
func (f *FIR) CancelBlock(block, ref []complex128) (planar bool) {
	n := len(block)
	if len(ref) != n {
		panic("dsp: CancelBlock needs len(ref) == len(block)")
	}
	if !f.planarFor(n) {
		for i, v := range ref {
			block[i] -= f.Push(v)
		}
		return false
	}
	if need := planarScratch(len(f.taps), n); cap(f.scratch) < need {
		f.scratch = make([]float64, need)
	}
	xr, xi := f.loadPlanar(ref)
	firFilterSoA(block, xr, xi, f.hr, f.hi, true)
	return true
}

// planarScratch is the scratch length an n-sample block through t taps
// needs: two planes of history padded to pad8(t−1) plus the block padded
// to pad8(n), and up to seven floats of slack to reach a 64-byte
// boundary.
func planarScratch(t, n int) int { return 2*(pad8(t-1)+pad8(n)) + 7 }

// pad8 rounds n up to a multiple of eight floats (64 bytes).
func pad8(n int) int { return (n + 7) &^ 7 }

// loadPlanar lays the T−1 most recent inputs from the delay line and
// then x out as the planes xr/xi (history oldest first, len T−1+len(x)),
// and writes the T newest inputs back to the delay line, so the direct
// form continues where the planar kernel leaves off. It only reads x.
// The block region of each plane starts on a 64-byte boundary, so the
// deinterleave stores and the kernel's tap-0 loads do not split cache
// lines; the views are valid until the next block call. The caller has
// grown scratch for len(x).
func (f *FIR) loadPlanar(x []complex128) (xr, xi []float64) {
	t, n := len(f.taps), len(x)
	pad := pad8(t - 1)
	// Floats from the scratch base to the next 64-byte boundary (the heap
	// does not move objects, so the address is stable).
	base := int(-uintptr(unsafe.Pointer(&f.scratch[0])) % 64 / 8)
	im := base + pad + pad8(n)
	xr = f.scratch[base+pad-(t-1) : base+pad+n]
	xi = f.scratch[im+pad-(t-1) : im+pad+n]
	// History, oldest first: line[pos] is the newest input.
	for j, v := range f.line[f.pos : f.pos+t-1] {
		xr[t-2-j], xi[t-2-j] = real(v), imag(v)
	}
	Deinterleave(xr[t-1:], xi[t-1:], x)
	// The newest T inputs become the delay line, newest at pos = 0.
	m := t - 1 + n
	f.pos = 0
	for j := 0; j < t; j++ {
		v := complex(xr[m-1-j], xi[m-1-j])
		f.line[j], f.line[j+t] = v, v
	}
	return xr, xi
}

// Process filters a whole block, sample by sample, preserving state across
// calls.
func (f *FIR) Process(x []complex128) []complex128 {
	y := make([]complex128, len(x)) //fflint:allow allocfree allocating convenience form; streaming block paths filter in place through FilterBlock
	for i, v := range x {
		y[i] = f.Push(v)
	}
	return y
}

// DelayLine is a streaming integer-sample delay: y[n] = x[n-d]. A delay of 0
// passes samples straight through. It models fixed pipeline latency such as
// ADC/DAC delays in the relay.
type DelayLine struct {
	buf []complex128
	pos int
}

// NewDelayLine creates a streaming delay of d samples (d >= 0).
func NewDelayLine(d int) *DelayLine {
	if d < 0 {
		panic("dsp: negative delay")
	}
	return &DelayLine{buf: make([]complex128, d)}
}

// Push feeds one sample and returns the sample delayed by the configured
// number of samples.
func (d *DelayLine) Push(x complex128) complex128 {
	if len(d.buf) == 0 {
		return x
	}
	y := d.buf[d.pos]
	d.buf[d.pos] = x
	d.pos++
	if d.pos == len(d.buf) {
		d.pos = 0
	}
	return y
}

// Reset clears the delay buffer.
func (d *DelayLine) Reset() {
	for i := range d.buf {
		d.buf[i] = 0
	}
	d.pos = 0
}
