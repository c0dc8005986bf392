package dsp

// FIR is a streaming causal finite-impulse-response filter. It keeps its own
// delay line so that samples can be pushed one at a time, which is how the
// FastForward relay processes IQ streams: output y[n] = sum_k h[k]·x[n-k].
//
// The zero-delay property matters: tap 0 multiplies the *current* input, so a
// FIR with h[0] != 0 contributes to the output in the same sample instant it
// receives the input. This models the paper's causal cancellation filter,
// which adds no buffering delay (Sec 3.3, Fig 9a).
type FIR struct {
	taps []complex128
	// line is the delay line stored twice over (length 2·T): every input
	// is written at pos and pos+T, so line[pos:pos+T] is always the most
	// recent T inputs, newest first, without a wrap branch in the tap
	// loop. The accumulation order is identical to the classic circular
	// buffer, so outputs are bit-exact with it.
	line []complex128
	pos  int
}

// NewFIR creates a streaming FIR with the given taps. The taps slice is
// copied. A nil or empty taps slice yields an all-zero filter with one tap.
func NewFIR(taps []complex128) *FIR {
	if len(taps) == 0 {
		taps = []complex128{0}
	}
	t := make([]complex128, len(taps))
	copy(t, taps)
	return &FIR{
		taps: t,
		line: make([]complex128, 2*len(taps)),
	}
}

// Taps returns a copy of the filter taps.
func (f *FIR) Taps() []complex128 {
	t := make([]complex128, len(f.taps))
	copy(t, f.taps)
	return t
}

// NumTaps returns the number of filter taps.
func (f *FIR) NumTaps() int { return len(f.taps) }

// SetTaps replaces the filter coefficients without clearing filter state.
// The new taps must have the same length as the old ones.
func (f *FIR) SetTaps(taps []complex128) {
	if len(taps) != len(f.taps) {
		panic("dsp: SetTaps length mismatch")
	}
	copy(f.taps, taps)
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

// Recent writes the most recent len(dst) inputs into dst, oldest first
// (dst[len-1] is the last pushed sample). Positions never pushed read as
// zero, matching the reset state. len(dst) must not exceed NumTaps.
func (f *FIR) Recent(dst []complex128) {
	if len(dst) > len(f.taps) {
		panic("dsp: Recent needs len(dst) <= NumTaps")
	}
	win := f.line[f.pos : f.pos+len(f.taps)]
	for j := 0; j < len(dst); j++ {
		dst[len(dst)-1-j] = win[j]
	}
}

// LoadRecent replaces the delay line with the given input history, newest
// last. len(src) must equal NumTaps. Block-convolution fast paths use
// Recent/LoadRecent to keep the streaming state consistent with the
// direct form across calls.
func (f *FIR) LoadRecent(src []complex128) {
	t := len(f.taps)
	if len(src) != t {
		panic("dsp: LoadRecent needs len(src) == NumTaps")
	}
	f.pos = 0
	for j := 0; j < t; j++ {
		v := src[t-1-j]
		f.line[j] = v
		f.line[j+t] = v
	}
}

// RecentSoA is Recent into planar components: re[len-1]/im[len-1] are the
// last pushed sample. len(re) must equal len(im) and not exceed NumTaps.
func (f *FIR) RecentSoA(re, im []float64) {
	n := len(re)
	if len(im) != n || n > len(f.taps) {
		panic("dsp: RecentSoA needs len(re) == len(im) <= NumTaps")
	}
	win := f.line[f.pos : f.pos+n]
	for j, v := range win {
		re[n-1-j] = real(v)
		im[n-1-j] = imag(v)
	}
}

// LoadRecentSoA is LoadRecent from planar components, newest last.
// len(re) and len(im) must equal NumTaps.
func (f *FIR) LoadRecentSoA(re, im []float64) {
	t := len(f.taps)
	if len(re) != t || len(im) != t {
		panic("dsp: LoadRecentSoA needs len(re) == len(im) == NumTaps")
	}
	f.pos = 0
	for j := 0; j < t; j++ {
		v := complex(re[t-1-j], im[t-1-j])
		f.line[j] = v
		f.line[j+t] = v
	}
}

// Process filters a whole block, sample by sample, preserving state across
// calls.
func (f *FIR) Process(x []complex128) []complex128 {
	y := make([]complex128, len(x)) //fflint:allow allocfree allocating convenience form; streaming block paths filter in place through pipeline.FIRStage
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

// Delay returns the configured delay in samples.
func (d *DelayLine) Delay() int { return len(d.buf) }

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
