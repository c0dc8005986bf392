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

// NumTaps returns the number of filter taps.
func (f *FIR) NumTaps() int { return len(f.taps) }

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

// RecentSoA writes the most recent len(re) inputs into planar
// components, oldest first: re[len-1]/im[len-1] are the last pushed
// sample. Positions never pushed read as zero, matching the reset state.
// len(re) must equal len(im) and not exceed NumTaps.
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

// LoadRecentSoA replaces the delay line with the given input history in
// planar components, newest last. len(re) and len(im) must equal
// NumTaps. The planar block kernel uses RecentSoA/LoadRecentSoA to keep
// the streaming state consistent with the direct form across calls.
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
