package pipeline

import (
	"math"

	"fastforward/internal/dsp"
	"fastforward/internal/obs"
)

// FIRStage is a causal streaming FIR filter stage (zero buffering delay:
// tap 0 applies to the current sample, as the paper's digital canceller
// requires, Fig 9a). Blocks of at least minSoABlock samples through a
// filter of at least minSoATaps taps run the planar structure-of-arrays
// MAC kernel, armed at construction; Push, shorter blocks and shorter
// filters run the direct form. Both are bit-identical to dsp.FIR.Push and
// share one delay line, so they mix freely across calls. EnableFFT arms
// the one opt-in approximate path, overlap-save FFT convolution (≤1e-9),
// which takes over from the planar kernel for filters of
// soaFFTCrossoverTaps taps and more.
type FIRStage struct {
	name      string
	fir       *dsp.FIR
	ov        *ovSave
	soa       *soaFIR
	fftBlocks *obs.Counter
	soaBlocks *obs.Counter
	shard     int
}

// NewFIRStage builds a FIR stage with the given taps (copied).
func NewFIRStage(name string, taps []complex128) *FIRStage {
	s := &FIRStage{name: name, fir: dsp.NewFIR(taps)}
	if s.fir.NumTaps() >= minSoATaps {
		s.soa = newSoAFIR(taps)
	}
	return s
}

// Name returns the stage name.
func (s *FIRStage) Name() string { return s.name }

// LatencySamples is 0: the filter is causal with an immediate tap 0.
func (s *FIRStage) LatencySamples() int { return 0 }

// NumTaps returns the filter length.
func (s *FIRStage) NumTaps() int { return s.fir.NumTaps() }

// Taps returns a copy of the filter taps.
func (s *FIRStage) Taps() []complex128 { return s.fir.Taps() }

// EnableFFT switches block processing of long filters onto the
// overlap-save fast path (≤1e-9 of the direct form, not bit-exact).
// Blocks shorter than the filter (and all Push calls) keep the direct
// form, and filters below soaFFTCrossoverTaps keep the planar kernel.
// No-op for filters too short to gain from it.
func (s *FIRStage) EnableFFT() {
	if s.ov == nil && s.fir.NumTaps() >= minFFTTaps {
		s.ov = newOvSave(s.fir.Taps())
	}
}

// FFTEnabled reports whether the overlap-save path is armed.
func (s *FIRStage) FFTEnabled() bool { return s.ov != nil }

func (s *FIRStage) setFFTObs(c *obs.Counter, shard int) {
	s.fftBlocks = c
	s.shard = shard
}

func (s *FIRStage) setSoAObs(c *obs.Counter, shard int) {
	s.soaBlocks = c
	s.shard = shard
}

// Push filters one sample through the direct form.
func (s *FIRStage) Push(x complex128) complex128 { return s.fir.Push(x) }

// useFFT decides whether an n-sample block takes the overlap-save path:
// it must be armed and eligible, and when the planar MAC is eligible too
// the filter must be long enough for frequency-domain convolution to beat
// it (soaFFTCrossoverTaps).
func (s *FIRStage) useFFT(n int) bool {
	if s.ov == nil || n < s.ov.minBlock {
		return false
	}
	return s.soaBlock(n) == nil || s.fir.NumTaps() >= soaFFTCrossoverTaps
}

// soaBlock returns the planar engine when an n-sample block is eligible
// for it, nil otherwise.
func (s *FIRStage) soaBlock(n int) *soaFIR {
	if n < minSoABlock {
		return nil
	}
	return s.soa
}

// Process filters the block in place.
func (s *FIRStage) Process(block []complex128) []complex128 {
	if s.useFFT(len(block)) {
		s.ov.filter(s.fir, block)
		if s.fftBlocks != nil {
			s.fftBlocks.Inc(s.shard)
		}
		return block
	}
	if o := s.soaBlock(len(block)); o != nil {
		o.filter(s.fir, block)
		if s.soaBlocks != nil {
			s.soaBlocks.Inc(s.shard)
		}
		return block
	}
	for i, v := range block {
		block[i] = s.fir.Push(v)
	}
	return block
}

// Reset clears the delay line.
func (s *FIRStage) Reset() { s.fir.Reset() }

// CancelStage subtracts a FIR-filtered reference from the block:
// out[n] = in[n] − Σ_k h[k]·ref[n−k]. This is the causal digital
// self-interference canceller as a stage: the block is the received
// signal, the reference is the known transmitted signal. SetReference
// must supply at least as many reference samples as the blocks that
// follow consume; segmented processing consumes the reference
// incrementally, so one SetReference call covers any block split.
type CancelStage struct {
	name string
	fir  *FIRStage
	ref  []complex128
	est  []complex128
}

// NewCancelStage builds the canceller from estimated leakage taps.
func NewCancelStage(name string, taps []complex128) *CancelStage {
	return &CancelStage{name: name, fir: NewFIRStage(name+"_fir", taps)}
}

// Name returns the stage name.
func (s *CancelStage) Name() string { return s.name }

// LatencySamples is 0: cancellation buffers no received samples.
func (s *CancelStage) LatencySamples() int { return 0 }

// NumTaps returns the canceller length.
func (s *CancelStage) NumTaps() int { return s.fir.NumTaps() }

// EnableFFT arms the overlap-save fast path of the underlying filter.
func (s *CancelStage) EnableFFT() { s.fir.EnableFFT() }

// FFTEnabled reports whether the overlap-save path is armed.
func (s *CancelStage) FFTEnabled() bool { return s.fir.FFTEnabled() }

func (s *CancelStage) setFFTObs(c *obs.Counter, shard int) { s.fir.setFFTObs(c, shard) }

func (s *CancelStage) setSoAObs(c *obs.Counter, shard int) { s.fir.setSoAObs(c, shard) }

// SetReference supplies the transmitted samples the following Process
// calls cancel against. The slice is consumed, not copied: keep it alive
// until processed.
func (s *CancelStage) SetReference(tx []complex128) { s.ref = tx }

// PushPair cancels one sample: rx minus the filtered tx reference.
func (s *CancelStage) PushPair(tx, rx complex128) complex128 {
	return rx - s.fir.Push(tx)
}

// Process cancels the block in place, consuming len(block) reference
// samples.
func (s *CancelStage) Process(block []complex128) []complex128 {
	if len(s.ref) < len(block) {
		panic("pipeline: CancelStage reference shorter than block")
	}
	ref := s.ref[:len(block)]
	s.ref = s.ref[len(block):]
	// Planar path: filter the reference through the SoA MAC and subtract
	// the planar estimate straight from the block — no interleave pass
	// for the estimate. Skipped when the stage's arbitration picks
	// overlap-save (filters past the crossover convolve faster in the
	// frequency domain).
	if o := s.fir.soaBlock(len(block)); o != nil && !s.fir.useFFT(len(block)) {
		er, ei := o.filterPlanar(s.fir.fir, ref)
		dsp.SubInPlaceSoA(block, er, ei)
		if s.fir.soaBlocks != nil {
			s.fir.soaBlocks.Inc(s.fir.shard)
		}
		return block
	}
	if cap(s.est) < len(block) {
		s.est = make([]complex128, len(block))
	}
	est := s.est[:len(block)]
	copy(est, ref)
	s.fir.Process(est)
	for i := range block {
		block[i] -= est[i]
	}
	return block
}

// Reset clears filter state and drops any unconsumed reference.
func (s *CancelStage) Reset() {
	s.fir.Reset()
	s.ref = nil
}

// rotResync is how many samples the CFO rotator advances by phasor
// recurrence before recomputing the phasor from the accumulated phase.
// Each recurrence step adds a few ulps of error, so the drift between
// resyncs stays near 1e-14 while sin/cos is paid once per 256 samples
// instead of once per sample.
const rotResync = 256

// CFOStage rotates the block by a per-sample phase ramp: y[n] = x[n] ·
// exp(j·n·step), with the phase carrying across calls. A negative step
// removes a carrier-frequency offset; the positive step restores it
// (Sec 4.1).
//
// The rotation is an incremental phasor: one complex multiply per sample,
// resynced with math.Sincos every rotResync samples. The phase itself
// advances once per resync, by rotResync·step, and wraps into [−π, π]
// there by the odd-symmetric rule φ −= 2π·round(φ/2π): it stays bounded
// however long a session streams, and a remove/restore pair built from
// ±step stays exact negations of each other (IEEE negation distributes
// over every operation involved).
type CFOStage struct {
	name string
	step float64
	// span = rotResync·step is the phase advance between resyncs.
	span float64
	// phase is the (wrapped) phase at the last resync; the next sample's
	// phase is phase + cnt·step, and w = exp(j·that) is its phasor, carried
	// by the recurrence w ← w·rot with rot = exp(j·step).
	phase          float64
	cnt            int
	wCos, wSin     float64
	rotCos, rotSin float64
}

// NewCFOStage builds a rotator advancing by stepRad per sample.
func NewCFOStage(name string, stepRad float64) *CFOStage {
	s := &CFOStage{name: name, step: stepRad, span: rotResync * stepRad}
	s.rotSin, s.rotCos = math.Sincos(stepRad)
	s.Reset()
	return s
}

// Name returns the stage name.
func (s *CFOStage) Name() string { return s.name }

// LatencySamples is 0.
func (s *CFOStage) LatencySamples() int { return 0 }

// wrapPhase folds p into [−π, π]. math.Round rounds half away from zero,
// so wrapPhase(−p) == −wrapPhase(p) bit for bit.
func wrapPhase(p float64) float64 {
	return p - 2*math.Pi*math.Round(p/(2*math.Pi))
}

// Process rotates the block in place.
func (s *CFOStage) Process(block []complex128) []complex128 {
	wCos, wSin := s.wCos, s.wSin
	rotCos, rotSin := s.rotCos, s.rotSin
	cnt := s.cnt
	for i := range block {
		a, b := real(block[i]), imag(block[i])
		block[i] = complex(a*wCos-b*wSin, a*wSin+b*wCos)
		cnt++
		if cnt == rotResync {
			// Resync: advance the phase a whole window and recompute the
			// phasor from it, zeroing the recurrence drift.
			s.phase = wrapPhase(s.phase + s.span)
			wSin, wCos = math.Sincos(s.phase)
			cnt = 0
		} else {
			wCos, wSin = wCos*rotCos-wSin*rotSin, wCos*rotSin+wSin*rotCos
		}
	}
	s.wCos, s.wSin = wCos, wSin
	s.cnt = cnt
	return block
}

// Reset rewinds the phase and the phasor to sample 0.
func (s *CFOStage) Reset() {
	s.phase, s.cnt = 0, 0
	s.wCos, s.wSin = 1, 0
}

// GainStage multiplies every sample by a fixed complex gain.
type GainStage struct {
	name string
	g    complex128
}

// NewGainStage builds an amplification stage.
func NewGainStage(name string, g complex128) *GainStage {
	return &GainStage{name: name, g: g}
}

// Name returns the stage name.
func (s *GainStage) Name() string { return s.name }

// LatencySamples is 0.
func (s *GainStage) LatencySamples() int { return 0 }

// Process scales the block in place.
func (s *GainStage) Process(block []complex128) []complex128 {
	for i := range block {
		block[i] *= s.g
	}
	return block
}

// Reset is a no-op (gain is configuration, not state).
func (s *GainStage) Reset() {}

// DelayStage delays the stream by a fixed number of samples — the
// explicit pipeline latency (ADC/DAC, buffering) the latency experiment
// sweeps.
type DelayStage struct {
	name string
	dl   *dsp.DelayLine
}

// NewDelayStage builds a d-sample delay (d ≥ 0).
func NewDelayStage(name string, d int) *DelayStage {
	return &DelayStage{name: name, dl: dsp.NewDelayLine(d)}
}

// Name returns the stage name.
func (s *DelayStage) Name() string { return s.name }

// LatencySamples returns the configured delay.
func (s *DelayStage) LatencySamples() int { return s.dl.Delay() }

// Process delays the block in place.
func (s *DelayStage) Process(block []complex128) []complex128 {
	for i, v := range block {
		block[i] = s.dl.Push(v)
	}
	return block
}

// Reset clears the delay buffer.
func (s *DelayStage) Reset() { s.dl.Reset() }

// Pusher is any per-sample processor with streaming state — notably
// impair.Stream, whose hardware-impairment profiles become chain stages
// through PusherStage without pipeline depending on the impair package.
type Pusher interface {
	Push(complex128) complex128
	Reset()
}

// PusherStage adapts a Pusher into a Stage.
type PusherStage struct {
	name string
	lat  int
	p    Pusher
}

// NewPusherStage wraps p, declaring its buffering latency (0 for
// memoryless impairment chains).
func NewPusherStage(name string, latencySamples int, p Pusher) *PusherStage {
	return &PusherStage{name: name, lat: latencySamples, p: p}
}

// Name returns the stage name.
func (s *PusherStage) Name() string { return s.name }

// LatencySamples returns the declared latency.
func (s *PusherStage) LatencySamples() int { return s.lat }

// Process pushes the block through in place.
func (s *PusherStage) Process(block []complex128) []complex128 {
	for i, v := range block {
		block[i] = s.p.Push(v)
	}
	return block
}

// Reset resets the wrapped processor.
func (s *PusherStage) Reset() { s.p.Reset() }

// markerStage declares latency that is realized outside the chain's
// Process — e.g. the relay's pending-sample handoff register, which adds
// one sample of delay structurally in the feedback loop. Process is the
// identity; only the latency accounting sees it.
type markerStage struct {
	name string
	lat  int
}

// NewLatencyMarker builds a pass-through stage carrying latency
// accounting for delay realized outside the chain.
func NewLatencyMarker(name string, samples int) Stage {
	return &markerStage{name: name, lat: samples}
}

func (s *markerStage) Name() string                            { return s.name }
func (s *markerStage) LatencySamples() int                     { return s.lat }
func (s *markerStage) Process(block []complex128) []complex128 { return block }
func (s *markerStage) Reset()                                  {}

// VecMulStage multiplies the stream element-wise against a fixed vector,
// advancing a cursor across calls: sample n of the stream is scaled by
// v[n]. This is the frequency-domain analogue of a filter stage — the
// testbed's per-carrier channel and CNF responses compose into declared
// chains with it. Processing more samples than len(v) panics.
type VecMulStage struct {
	name string
	v    []complex128
	pos  int
}

// NewVecMulStage builds the stage over v (not copied).
func NewVecMulStage(name string, v []complex128) *VecMulStage {
	return &VecMulStage{name: name, v: v}
}

// Name returns the stage name.
func (s *VecMulStage) Name() string { return s.name }

// LatencySamples is 0.
func (s *VecMulStage) LatencySamples() int { return 0 }

// Process scales the block in place against the next len(block) vector
// entries.
func (s *VecMulStage) Process(block []complex128) []complex128 {
	if s.pos+len(block) > len(s.v) {
		panic("pipeline: VecMulStage consumed past its vector")
	}
	for i := range block {
		block[i] *= s.v[s.pos]
		s.pos++
	}
	return block
}

// Reset rewinds the cursor.
func (s *VecMulStage) Reset() { s.pos = 0 }

// TapStage records the stream flowing through it (pass-through), exposing
// intermediate chain products — e.g. the relay-filter output whose power
// sets the forwarded-noise gain in the testbed.
type TapStage struct {
	name string
	buf  []complex128
}

// NewTapStage builds an empty tap.
func NewTapStage(name string) *TapStage {
	return &TapStage{name: name}
}

// Name returns the stage name.
func (s *TapStage) Name() string { return s.name }

// LatencySamples is 0.
func (s *TapStage) LatencySamples() int { return 0 }

// Process records and passes the block through unchanged.
func (s *TapStage) Process(block []complex128) []complex128 {
	s.buf = append(s.buf, block...)
	return block
}

// Samples returns everything recorded since the last Reset.
func (s *TapStage) Samples() []complex128 { return s.buf }

// Reset drops the recording.
func (s *TapStage) Reset() { s.buf = s.buf[:0] }
