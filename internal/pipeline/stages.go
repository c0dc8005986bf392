package pipeline

import (
	"math"

	"fastforward/internal/dsp"
	"fastforward/internal/obs"
)

// soaCount counts a filter stage's planar blocks into pipeline.soa_blocks
// (the soaObservable hook).
type soaCount struct {
	c     *obs.Counter
	shard int
}

func (s *soaCount) setSoAObs(c *obs.Counter, shard int) {
	s.c = c
	s.shard = shard
}

// count records one block that dsp.FIR reports as planar.
func (s *soaCount) count(planar bool) {
	if planar && s.c != nil {
		s.c.Inc(s.shard)
	}
}

// FIRStage is a causal streaming FIR filter stage (zero buffering delay:
// tap 0 applies to the current sample, as the paper's digital canceller
// requires, Fig 9a) over dsp.FIR.FilterBlock, which picks the block path
// and is bit-exact with dsp.FIR.Push on every path.
type FIRStage struct {
	name string
	fir  *dsp.FIR
	soaCount
}

// NewFIRStage builds a FIR stage with the given taps (copied).
func NewFIRStage(name string, taps []complex128) *FIRStage {
	return &FIRStage{name: name, fir: dsp.NewFIR(taps)}
}

// Name returns the stage name.
func (s *FIRStage) Name() string { return s.name }

// Process filters the block in place.
func (s *FIRStage) Process(block []complex128) []complex128 {
	s.count(s.fir.FilterBlock(block))
	return block
}

// Reset clears the delay line.
func (s *FIRStage) Reset() { s.fir.Reset() }

// CancelStage subtracts a FIR-filtered reference from the block:
// out[n] = in[n] − Σ_k h[k]·ref[n−k], through dsp.FIR.CancelBlock. This
// is the causal digital self-interference canceller as a stage: the
// block is the received signal, the reference is the known transmitted
// signal. SetReference must supply at least as many reference samples as
// the blocks that follow consume; segmented processing consumes the
// reference incrementally, so one SetReference call covers any block
// split.
type CancelStage struct {
	name string
	fir  *dsp.FIR
	ref  []complex128
	soaCount
}

// NewCancelStage builds the canceller from estimated leakage taps.
func NewCancelStage(name string, taps []complex128) *CancelStage {
	return &CancelStage{name: name, fir: dsp.NewFIR(taps)}
}

// Name returns the stage name.
func (s *CancelStage) Name() string { return s.name }

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
	s.count(s.fir.CancelBlock(block, ref))
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
// instead of once per sample. A window's phasors depend only on its start
// phasor, so rotGroup whole windows can advance side by side.
const rotResync = 256

// rotGroup is how many whole resync windows CFOStage.Process rotates at
// once: four independent recurrences hide the latency of each one's
// multiply-add chain.
const rotGroup = 4

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
// over every operation involved). Process finishes the current window
// one sample at a time, rotates the following whole windows rotGroup at
// a time with their recurrences interleaved, and runs the rest one sample
// at a time; every sample sees the same multiply, recurrence step and
// resync on either path, so the output and the state are bit-identical
// for any segmentation.
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

// wrapPhase folds p into [−π, π]. math.Round rounds half away from zero,
// so wrapPhase(−p) == −wrapPhase(p) bit for bit.
func wrapPhase(p float64) float64 {
	return p - 2*math.Pi*math.Round(p/(2*math.Pi))
}

// Process rotates the block in place.
func (s *CFOStage) Process(block []complex128) []complex128 {
	rest := block
	if len(rest) >= rotGroup*rotResync {
		if s.cnt != 0 {
			n := rotResync - s.cnt
			s.rotate(rest[:n])
			rest = rest[n:]
		}
		for len(rest) >= rotGroup*rotResync {
			s.rotateGroup((*[rotGroup * rotResync]complex128)(rest))
			rest = rest[rotGroup*rotResync:]
		}
	}
	s.rotate(rest)
	return block
}

// rotate rotates block one sample at a time from the current state.
func (s *CFOStage) rotate(block []complex128) {
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
}

// rotateGroup rotates rotGroup whole windows starting at a resync (cnt ==
// 0). Window 0 starts at the current phasor and windows 1 to 3 at the
// phasors of the next three resync phases; the loop then advances the
// four recurrences side by side, one sample of each window per
// iteration. The last iteration's step is discarded, as the resync
// replaces it.
func (s *CFOStage) rotateGroup(g *[rotGroup * rotResync]complex128) {
	c0, s0 := s.wCos, s.wSin
	p := wrapPhase(s.phase + s.span)
	s1, c1 := math.Sincos(p)
	p = wrapPhase(p + s.span)
	s2, c2 := math.Sincos(p)
	p = wrapPhase(p + s.span)
	s3, c3 := math.Sincos(p)
	s.phase = wrapPhase(p + s.span)
	s.wSin, s.wCos = math.Sincos(s.phase)
	rotCos, rotSin := s.rotCos, s.rotSin
	w0 := (*[rotResync]complex128)(g[0*rotResync:])
	w1 := (*[rotResync]complex128)(g[1*rotResync:])
	w2 := (*[rotResync]complex128)(g[2*rotResync:])
	w3 := (*[rotResync]complex128)(g[3*rotResync:])
	for i := range w0 {
		a, b := real(w0[i]), imag(w0[i])
		w0[i] = complex(a*c0-b*s0, a*s0+b*c0)
		a, b = real(w1[i]), imag(w1[i])
		w1[i] = complex(a*c1-b*s1, a*s1+b*c1)
		a, b = real(w2[i]), imag(w2[i])
		w2[i] = complex(a*c2-b*s2, a*s2+b*c2)
		a, b = real(w3[i]), imag(w3[i])
		w3[i] = complex(a*c3-b*s3, a*s3+b*c3)
		c0, s0 = c0*rotCos-s0*rotSin, c0*rotSin+s0*rotCos
		c1, s1 = c1*rotCos-s1*rotSin, c1*rotSin+s1*rotCos
		c2, s2 = c2*rotCos-s2*rotSin, c2*rotSin+s2*rotCos
		c3, s3 = c3*rotCos-s3*rotSin, c3*rotSin+s3*rotCos
	}
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

// Process scales the block in place.
func (s *GainStage) Process(block []complex128) []complex128 {
	g := s.g // a local: the block store could alias s.g, forcing a reload per sample
	for i := range block {
		block[i] *= g
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
	p    Pusher
}

// NewPusherStage wraps p.
func NewPusherStage(name string, p Pusher) *PusherStage {
	return &PusherStage{name: name, p: p}
}

// Name returns the stage name.
func (s *PusherStage) Name() string { return s.name }

// Process pushes the block through in place.
func (s *PusherStage) Process(block []complex128) []complex128 {
	for i, v := range block {
		block[i] = s.p.Push(v)
	}
	return block
}

// Reset resets the wrapped processor.
func (s *PusherStage) Reset() { s.p.Reset() }
