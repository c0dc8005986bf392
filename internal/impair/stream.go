package impair

import (
	"math"
	"math/cmplx"

	"fastforward/internal/rng"
)

// Stream applies a profile's impairments one sample at a time, for the
// streaming relay pipeline where signals are processed with per-sample
// state (fastforward's Fig 3 loop) rather than in blocks.
//
// A streaming front end cannot look ahead to measure the signal RMS, so
// Stream takes an AGC reference RMS at construction — the level the
// receive/transmit chain was levelled to — and sets the ADC full scale and
// PA saturation point from it, fixed, exactly how a real AGC-then-ADC
// chain behaves between gain updates.
type Stream struct {
	p   *Profile
	src *rng.Source

	// RX-chain state.
	rx        bool
	phase     float64 // CFO accumulator
	phaseStep float64
	pnPhase   float64 // phase-noise random walk
	alpha     complex128
	beta      complex128
	iq        bool
	fullScale float64 // ADC clip point (amplitude per rail); 0 = no ADC
	quantStep float64

	// TX-chain state.
	tx   bool
	asat float64 // PA saturation amplitude; 0 = linear
	s2   float64 // 2·smoothness
}

// NewRxStream builds the receive front-end chain (CFO, phase noise, IQ
// imbalance, ADC) of the profile. src draws the phase-noise walk; it is
// only consumed when the profile configures phase noise, so toggling other
// impairments never shifts the stream. refRMS is the AGC reference
// amplitude (per complex sample) the ADC full scale is set against.
//
// IQ imbalance follows the standard image model alpha·x + beta·conj(x);
// the image power |beta|²/|alpha|² leaks through any linear canceller.
// The ADC is a mid-rise uniform quantizer per rail whose full scale sits
// ADCClipBackoffDB above the per-rail reference RMS; beyond it samples
// clip.
func NewRxStream(p *Profile, src *rng.Source, sampleRate, refRMS float64) *Stream {
	st := &Stream{p: p, src: src, rx: true}
	if p == nil || p.IsZero() {
		return st
	}
	st.phaseStep = 2 * math.Pi * p.CFOHz / sampleRate
	if p.IQGainMismatchDB != 0 || p.IQPhaseErrorDeg != 0 {
		g := math.Pow(10, p.IQGainMismatchDB/20)
		phi := p.IQPhaseErrorDeg * math.Pi / 180
		st.alpha = complex((1+g*math.Cos(phi))/2, g*math.Sin(phi)/2)
		st.beta = complex((1-g*math.Cos(phi))/2, g*math.Sin(phi)/2)
		st.iq = true
	}
	if p.ADCBits > 0 && refRMS > 0 {
		perRail := refRMS / math.Sqrt2
		st.fullScale = perRail * math.Pow(10, p.ADCClipBackoffDB/20)
		st.quantStep = st.fullScale / float64(int64(1)<<uint(p.ADCBits-1))
	}
	return st
}

// NewTxStream builds the transmit chain (PA compression only) of the
// profile: a Rapp-model amplifier, AM/AM g(a) = a / (1+(a/asat)^{2s})^{1/2s}
// with phase preserved (SSPA AM/PM is second-order). refRMS anchors the
// saturation point: asat = refRMS · 10^(backoff/20).
func NewTxStream(p *Profile, refRMS float64) *Stream {
	st := &Stream{p: p, tx: true}
	if p == nil || p.PAInputBackoffDB <= 0 || math.IsInf(p.PAInputBackoffDB, 1) || refRMS <= 0 {
		return st
	}
	s := p.PASmoothness
	if s <= 0 {
		s = 2
	}
	st.asat = refRMS * math.Pow(10, p.PAInputBackoffDB/20)
	st.s2 = 2 * s
	return st
}

// Push passes one sample through the chain.
func (st *Stream) Push(v complex128) complex128 {
	if st.rx {
		if st.p != nil && (st.phaseStep != 0 || st.p.PhaseNoiseRadRMS > 0) {
			if st.p.PhaseNoiseRadRMS > 0 {
				st.pnPhase += st.p.PhaseNoiseRadRMS * st.src.Norm()
			}
			v *= cmplx.Exp(complex(0, st.phase+st.pnPhase))
			st.phase += st.phaseStep
		}
		if st.iq {
			v = st.alpha*v + st.beta*cmplx.Conj(v)
		}
		if st.quantStep > 0 {
			v = complex(st.quantize(real(v)), st.quantize(imag(v)))
		}
	}
	if st.tx && st.asat > 0 {
		a := cmplx.Abs(v)
		if a > 0 {
			g := a / math.Pow(1+math.Pow(a/st.asat, st.s2), 1/st.s2)
			v *= complex(g/a, 0)
		}
	}
	return v
}

func (st *Stream) quantize(v float64) float64 {
	if v > st.fullScale {
		v = st.fullScale
	}
	if v < -st.fullScale {
		v = -st.fullScale
	}
	return (math.Floor(v/st.quantStep) + 0.5) * st.quantStep
}

// Process applies Push over a block, returning a new slice.
func (st *Stream) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x)) //fflint:allow allocfree allocating convenience form; the relay feedback loop drives Push per sample
	for i, v := range x {
		out[i] = st.Push(v)
	}
	return out
}

// Reset clears the accumulated CFO and phase-noise state (not the
// configuration).
func (st *Stream) Reset() {
	st.phase = 0
	st.pnPhase = 0
}
