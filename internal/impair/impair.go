// Package impair is the hardware-impairment and fault-injection layer:
// it models the ways a real relay front-end deviates from the ideal one
// the rest of the simulation assumes — carrier frequency offset, oscillator
// phase noise, IQ imbalance, ADC quantization and clipping, power-amplifier
// compression — plus the control-plane faults that age or destroy channel
// state (stale CSI, dropped or corrupted sounding frames).
//
// The paper's 110 dB cancellation budget and constructive-combining gains
// assume tuned analog taps and fresh CSI; filter-and-forward and coupling-
// wave-canceler work (see PAPERS.md) shows both collapse under exactly
// these impairments. This package makes that collapse injectable and
// *measurable*: every signal path in the pipeline can be threaded through
// a Profile, and every sweep stays bit-identical across worker counts
// because all randomness flows through rng.ItemSeed-derived sources.
//
// Two operating levels, matching how the rest of the repo models signals:
//
//   - Waveform level (Stream, built by NewRxStream and NewTxStream): the
//     one sample-domain model of every front-end impairment, which the
//     streaming relay runs through relay.Config.Impair.
//
//   - Budget level (CancellationFloorDB, EffectiveCancellationDB, AgingRho,
//     AgeCSI): closed-form first-order penalties for the frequency-domain
//     testbed, deterministic in the profile so degradation sweeps are
//     monotone by construction.
package impair

import (
	"math"

	"fastforward/internal/rng"
)

// EstimationBlockSamples is the reference block length over which the
// digital canceller's FIR estimate is assumed coherent (the Characterize
// probe length). Time-varying impairments decohere the estimate over this
// horizon, which is what turns a phase drift into a cancellation floor.
const EstimationBlockSamples = 8000

// Profile is one impairment scenario. The zero value is the ideal
// front-end: its Stream is the identity and every budget penalty is
// zero, so a nil or zero Profile costs nothing and changes nothing.
type Profile struct {
	// Name labels the profile in flags, metrics and reports.
	Name string

	// CFOHz is the residual carrier frequency offset between the relay's
	// downconversion and upconversion chains (after the Sec 4.1 removal/
	// restoration, a real radio keeps a residual from oscillator drift).
	CFOHz float64
	// PhaseNoiseRadRMS is the per-sample random-walk step of the oscillator
	// phase in radians (Wiener phase noise).
	PhaseNoiseRadRMS float64
	// IQGainMismatchDB is the gain imbalance between the I and Q rails.
	IQGainMismatchDB float64
	// IQPhaseErrorDeg is the quadrature skew away from 90 degrees.
	IQPhaseErrorDeg float64
	// ADCBits is the converter resolution per rail; 0 means ideal (no
	// quantization).
	ADCBits int
	// ADCClipBackoffDB is the converter full-scale headroom above the
	// signal's RMS amplitude; samples beyond it clip. Only meaningful with
	// ADCBits > 0.
	ADCClipBackoffDB float64
	// PAInputBackoffDB is the power back-off from the PA's saturation
	// point (Rapp model); +Inf or 0-with-zero-profile means linear.
	// Smaller back-off = harder compression.
	PAInputBackoffDB float64
	// PASmoothness is the Rapp knee sharpness (typical SSPA: 2–3).
	PASmoothness float64

	// CSIAgeMs is how stale the sounding-derived CSI is when the filter is
	// applied (the paper refreshes every 50 ms; drift between refreshes is
	// governed by CoherenceMs).
	CSIAgeMs float64
	// CoherenceMs is the channel's 50% coherence time.
	CoherenceMs float64
	// SoundingLossProb is the probability that a sounding round is lost
	// outright (frame undetected), forcing the relay onto its last-known-
	// good filter for another interval.
	SoundingLossProb float64
	// SoundingCorruptProb is the probability that the sounding frame is
	// received but fails its FCS — detected corruption, same graceful
	// fallback.
	SoundingCorruptProb float64
}

// IsZero reports whether the profile injects nothing (ideal front-end).
func (p *Profile) IsZero() bool {
	if p == nil {
		return true
	}
	return p.CFOHz == 0 && p.PhaseNoiseRadRMS == 0 &&
		p.IQGainMismatchDB == 0 && p.IQPhaseErrorDeg == 0 &&
		p.ADCBits == 0 && p.PAInputBackoffDB == 0 &&
		p.CSIAgeMs == 0 && p.SoundingLossProb == 0 && p.SoundingCorruptProb == 0
}

// Source derives the deterministic random source for work item i of a
// sweep seeded with base. Impairment draws must never share a stream with
// channel synthesis (results would shift when impairments toggle) and must
// not depend on execution order (parallel sweeps), so every consumer gets
// its own ItemSeed-derived source through here.
func Source(base int64, i int) *rng.Source {
	// A fixed tag decorrelates the impairment stream from the channel
	// stream that is seeded from the same (base, i) pair.
	const impairTag = 0x1337
	return rng.New(rng.ItemSeed(rng.ItemSeed(base, i), impairTag))
}

// evm2 accumulates the first-order error-vector power (relative to signal
// power) each front-end impairment leaves behind a linear canceller or
// equalizer. These are the standard small-error expansions from the
// transceiver-impairment literature; each term is monotone in its knob, so
// profiles ordered by severity produce monotone budgets by construction.
func (p *Profile) evm2() float64 {
	var e float64
	// CFO: a linear phase ramp across the estimation block. The canceller
	// fits one coherent FIR; the mean-square residual of a phase ramp of
	// total excursion theta (after the fit absorbs the mean) is theta²/12.
	if p.CFOHz != 0 {
		theta := 2 * math.Pi * math.Abs(p.CFOHz) * EstimationBlockSamples / 20e6
		e += theta * theta / 12
	}
	// Wiener phase noise: phase variance grows as sigma²·n; averaged over
	// the block the mean-square error is sigma²·N/2.
	if p.PhaseNoiseRadRMS > 0 {
		e += p.PhaseNoiseRadRMS * p.PhaseNoiseRadRMS * EstimationBlockSamples / 2
	}
	// IQ imbalance: the conjugate image at power ((g−1)/2)² + (phi/2)² is
	// invisible to a linear-in-x canceller.
	if p.IQGainMismatchDB != 0 || p.IQPhaseErrorDeg != 0 {
		g := math.Pow(10, p.IQGainMismatchDB/20)
		phi := p.IQPhaseErrorDeg * math.Pi / 180
		e += (g-1)*(g-1)/4 + phi*phi/4
	}
	// ADC: Gaussian-loaded uniform quantizer. Quantization floor is
	// 6.02·bits + 4.77 − backoff dB; the clipping tail adds the closed-form
	// overload noise (1+a²)Q(a) − a·φ(a) at clip point a = 10^(backoff/20)
	// per-rail sigmas. Against the Stream ADC, the quantization term holds
	// within 2 dB at 6–12 bits and 16 dB back-off, and quant+clip within
	// 3 dB at the clip-dominated 8 bits, 8 dB (TestADCQuantizerSQNR).
	if p.ADCBits > 0 {
		quant := math.Pow(10, -(6.02*float64(p.ADCBits)+4.77-p.ADCClipBackoffDB)/10)
		a := math.Pow(10, p.ADCClipBackoffDB/20)
		clip := (1+a*a)*0.5*math.Erfc(a/math.Sqrt2) -
			a*math.Exp(-a*a/2)/math.Sqrt(2*math.Pi)
		if clip < 0 { // cancellation of the two tiny tail terms at high back-off
			clip = 0
		}
		e += quant + clip
	}
	// PA compression: the uncorrelated Rapp distortion (after a linear
	// canceller absorbs the gain compression) is fitted as
	// floor_dB ≈ 1.1·s·backoff + 12 across s ∈ {2,3}, backoff ∈ [3,12] dB.
	// Against NewTxStream on Gaussian input the fit misses by up to 6.2 dB:
	// it is 6.1 dB optimistic at s = 3, 6 dB and 3.8 dB pessimistic at
	// s = 2, 12 dB (TestPAFloorFit). The severity ladder's floors are
	// defined by this fit, so it stays as it is.
	if p.PAInputBackoffDB > 0 && !math.IsInf(p.PAInputBackoffDB, 1) {
		s := p.PASmoothness
		if s <= 0 {
			s = 2
		}
		e += math.Pow(10, -(1.1*s*p.PAInputBackoffDB+12)/10)
	}
	return e
}

// CancellationFloorDB returns the ceiling the front-end impairments impose
// on self-interference cancellation: the canceller subtracts a *linear,
// time-invariant* model of the transmitted signal, so every nonlinear or
// time-varying error term stays as residual. The floor is
// −10·log10(EVM²_total); an ideal profile returns +Inf (no floor).
func (p *Profile) CancellationFloorDB() float64 {
	if p == nil {
		return math.Inf(1)
	}
	e := p.evm2()
	if e <= 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(e)
}

// EffectiveCancellationDB caps an ideal cancellation budget by the
// profile's floor: the achieved cancellation under impairments.
func (p *Profile) EffectiveCancellationDB(idealDB float64) float64 {
	floor := p.CancellationFloorDB()
	if floor < idealDB {
		return floor
	}
	return idealDB
}

// AgingRho returns the Gauss-Markov correlation between the CSI the relay
// holds and the channel it is applied to, given the profile's CSI age and
// coherence time: 0.5^(age/coherence), 1 when no aging is configured.
func (p *Profile) AgingRho() float64 {
	if p == nil || p.CSIAgeMs <= 0 || p.CoherenceMs <= 0 {
		return 1
	}
	return math.Pow(0.5, p.CSIAgeMs/p.CoherenceMs)
}

// AgeCSI returns an aged copy of a per-subcarrier channel estimate: each
// element decorrelates to correlation rho with an innovation matching its
// own power, the Gauss-Markov model the staleness study (cnf.sounding)
// uses. rho >= 1 returns h unchanged.
func AgeCSI(src *rng.Source, h []complex128, rho float64) []complex128 {
	if rho >= 1 {
		return h
	}
	innov := 1 - rho*rho
	out := make([]complex128, len(h))
	r := complex(rho, 0)
	for i, v := range h {
		pw := real(v)*real(v) + imag(v)*imag(v)
		out[i] = r*v + src.ComplexGaussian(innov*pw)
	}
	return out
}

// SoundingOutcome is the fate of one sounding round under the profile.
type SoundingOutcome int

const (
	// SoundingOK: the round succeeded; CSI refreshes.
	SoundingOK SoundingOutcome = iota
	// SoundingLost: the frame was never detected; the relay holds its
	// last-known-good filter.
	SoundingLost
	// SoundingCorrupt: the frame was received but failed its FCS; detected
	// corruption, same fallback.
	SoundingCorrupt
)

// String names the outcome for metrics.
func (o SoundingOutcome) String() string {
	switch o {
	case SoundingOK:
		return "ok"
	case SoundingLost:
		return "lost"
	case SoundingCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// DrawSounding draws the fate of one sounding round. Exactly one uniform
// variate is consumed regardless of the configured probabilities, so
// enabling or disabling loss injection never shifts the rest of the
// stream.
func (p *Profile) DrawSounding(src *rng.Source) SoundingOutcome {
	u := src.Float64()
	if p == nil {
		return SoundingOK
	}
	if u < p.SoundingLossProb {
		return SoundingLost
	}
	if u < p.SoundingLossProb+p.SoundingCorruptProb {
		return SoundingCorrupt
	}
	return SoundingOK
}
