// Package sic implements FastForward's low-latency self-interference
// cancellation (Sec 3.3): a simulated RF self-interference channel, an
// analog cancellation stage modeled after the paper's 8-tap RF filter with
// 0.25 dB-step attenuators (reaching ~70 dB), a *causal* digital FIR
// canceller (120 taps, zero buffering delay), and the Gaussian
// noise-injection tuning procedure that avoids the correlation trap unique
// to relays — where the transmitted signal is a delayed copy of the
// received signal, so a naive adaptive canceller nulls the desired signal
// too.
//
// Characterize runs the whole chain over simulated relay placements and
// records the sic.* run metrics (analog, unquantized-fit and total
// cancellation, digital residual, tuner iteration counts) documented in
// OBSERVABILITY.md; AnalogCanceller.LastTune exposes the same per-tune
// telemetry programmatically.
package sic

import (
	"math"
	"math/cmplx"

	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/rng"
)

// CarrierHz is the RF carrier for analog-stage phase computation.
const CarrierHz = 2.45e9

// MaxCancellationDB is the physical ceiling: 20 dBm transmit power over a
// −90 dBm noise floor (Sec 3.3's "maximum cancellation expected is 110dB").
const MaxCancellationDB = 110.0

// SIPath is one leakage path from the relay's transmitter into its own
// receiver: circulator leakage, antenna reflection, or an environmental
// echo.
type SIPath struct {
	// DelayS is the path delay in seconds (sub-nanosecond for circulator
	// leakage, hundreds of ns for environment echoes).
	DelayS float64
	// GainDB is the path power gain relative to the transmitted signal
	// (negative; e.g. −15 dB for circulator leakage).
	GainDB float64
	// PhaseRad is an extra phase offset of the path.
	PhaseRad float64
}

// SIChannel is the self-interference channel: a sum of leakage paths.
type SIChannel struct {
	Paths []SIPath
}

// NewTypicalSIChannel synthesizes the self-interference environment of a
// relay node at some location: strong circulator leakage (~−15 dB at
// ~400 ps), an antenna mismatch reflection, and a few room echoes whose
// delays/gains vary with the seed. This mirrors the measurement-driven
// models of the full-duplex literature the paper builds on.
func NewTypicalSIChannel(src *rng.Source) *SIChannel {
	ch := &SIChannel{}
	// Circulator direct leakage.
	ch.Paths = append(ch.Paths, SIPath{
		DelayS:   300e-12 + 200e-12*src.Float64(),
		GainDB:   -15 - 3*src.Float64(),
		PhaseRad: 2 * math.Pi * src.Float64(),
	})
	// Antenna reflection.
	ch.Paths = append(ch.Paths, SIPath{
		DelayS:   800e-12 + 400e-12*src.Float64(),
		GainDB:   -20 - 5*src.Float64(),
		PhaseRad: 2 * math.Pi * src.Float64(),
	})
	// Environmental echoes: 2-4 paths between 50 and 400 ns, −85 to −100 dB
	// (two-way propagation to reflectors plus reflection loss and antenna
	// directionality). The analog stage's nanosecond-scale taps cannot
	// track their fast phase rotation across the band, so they set the
	// analog-stage floor (~70 dB below the dominant leakage, matching the
	// paper's analog figure) and are cleaned by the digital canceller.
	n := 2 + src.Intn(3)
	for i := 0; i < n; i++ {
		ch.Paths = append(ch.Paths, SIPath{
			DelayS:   50e-9 + 350e-9*src.Float64(),
			GainDB:   -85 - 15*src.Float64(),
			PhaseRad: 2 * math.Pi * src.Float64(),
		})
	}
	return ch
}

// FreqResponse evaluates the SI channel at baseband frequency f (Hz offset
// from the carrier), including the carrier phase of each path's delay —
// the quantity the RF analog canceller must match.
func (c *SIChannel) FreqResponse(f float64) complex128 {
	var acc complex128
	for _, p := range c.Paths {
		amp := math.Pow(10, p.GainDB/20)
		phase := -2*math.Pi*(CarrierHz+f)*p.DelayS + p.PhaseRad
		acc += cmplx.Rect(amp, phase)
	}
	return acc
}

// GainDB returns the aggregate SI power gain at band center.
func (c *SIChannel) GainDB() float64 {
	g := cmplx.Abs(c.FreqResponse(0))
	return 20 * math.Log10(g)
}

// BasebandFIR converts the SI channel to a sample-spaced baseband FIR at
// sampleRate with nTaps taps, for time-domain relay simulation. Fractional
// delays are realized with windowed-sinc interpolation; alignDelay extra
// samples of bulk delay keep the sinc tails causal (physically: ADC/DAC
// pipeline latency).
func (c *SIChannel) BasebandFIR(sampleRate float64, nTaps, alignDelay int) []complex128 {
	taps := make([]complex128, nTaps)
	const sincSpan = 8
	for _, p := range c.Paths {
		amp := math.Pow(10, p.GainDB/20)
		carrierPhase := -2*math.Pi*CarrierHz*p.DelayS + p.PhaseRad
		g := cmplx.Rect(amp, carrierPhase)
		d := p.DelayS*sampleRate + float64(alignDelay)
		center := int(math.Round(d))
		for k := center - sincSpan; k <= center+sincSpan; k++ {
			if k < 0 || k >= nTaps {
				continue
			}
			x := float64(k) - d
			w := 0.54 + 0.46*math.Cos(math.Pi*x/float64(sincSpan+1))
			taps[k] += g * complex(sinc(x)*w, 0)
		}
	}
	return taps
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// AnalogCanceller models the paper's tunable RF FIR: fixed tap delays
// (8 taps, 100–200 ps apart) with digitally stepped attenuators (0 to
// 31.75 dB in 0.25 dB steps). Gains are non-negative real attenuations;
// phase diversity comes entirely from the tap delays, as in the hardware.
// The tuned simulation reaches 40–60 dB (median ≈55 dB); the paper's
// hardware reports ~70 dB, a gap we attribute to tuning details beyond
// this model (see EXPERIMENTS.md). Total cancellation is unaffected: the
// digital stage drives the residual to the noise floor either way.
type AnalogCanceller struct {
	// TapDelaysS are the fixed delays of each tap in seconds.
	TapDelaysS []float64
	// RefAmps holds each tap's fixed coupling amplitude at 0 dB attenuation.
	RefAmps []float64
	// AttenDB holds each tap's attenuator setting; math.Inf(1) = tap off.
	AttenDB []float64
	// LastTune holds observability stats from the most recent Tune call.
	LastTune TuneStats
}

// Attenuator quantization per the prototype (Sec 4.3).
const (
	AttenStepDB = 0.25
	AttenMaxDB  = 31.75
)

// NewAnalogCanceller creates an untuned canceller with the prototype's tap
// structure: 8 taps spaced 100–200 ps apart. The tap delays fall into four
// phase directions roughly 88° apart at 2.45 GHz; each direction gets one
// strongly-coupled tap (for nulling the dominant leakage) and one
// weakly-coupled tap (for sub-step trim), with couplings graded from
// refAmp to refAmp−42 dB. refAmp should exceed the strongest SI path
// amplitude.
func NewAnalogCanceller(refAmp float64) *AnalogCanceller {
	// Two delay groups, each covering four phase directions ~88 degrees
	// apart at 2.45 GHz: a short group {200,300,500,800} ps and a long
	// group {1000,1100,1300,1200} ps. Bracketing the leakage delays in
	// every direction lets the fit match both the value and the frequency
	// slope of the SI response without huge opposing gains.
	delays := []float64{200e-12, 300e-12, 500e-12, 800e-12,
		1000e-12, 1100e-12, 1300e-12, 1200e-12}
	couplingDB := []float64{0, 0, 0, 0, -6, -6, -6, -6}
	a := &AnalogCanceller{TapDelaysS: delays}
	a.RefAmps = make([]float64, len(delays))
	a.AttenDB = make([]float64, len(delays))
	for i := range a.AttenDB {
		a.RefAmps[i] = refAmp * math.Pow(10, couplingDB[i]/20)
		a.AttenDB[i] = math.Inf(1)
	}
	return a
}

// TuneStats records the work and intermediate quality of the most recent
// Tune call, for run manifests: the unquantized NNLS fit is the ceiling
// the attenuator grid is quantizing toward, so a drop in QuantizedDB with
// a steady UnquantizedDB points at the quantization/descent stages, while
// a drop in both points at the SI environment or the fit itself.
type TuneStats struct {
	// UnquantizedDB is the continuous (un-quantized, all-taps-free) NNLS
	// fit's cancellation — the tuner's upper bound (EXPERIMENTS.md note 1
	// reports 62–74 dB).
	UnquantizedDB float64
	// QuantizedDB is the cancellation achieved after quantized tuning.
	QuantizedDB float64
	// RefineIterations counts coordinate-descent sweeps across all refine
	// and pair-refine passes (including basin hops).
	RefineIterations int
}

// band is the tuning band sampled once per tune: nFreq points spread over
// [-bw/2, +bw/2], the SI channel's response at each and each tap's unit
// phasor there. Every fit and every measurement of one tune reads it, so
// neither is recomputed per attenuator setting tried.
type band struct {
	si     []complex128   // the SI channel's response at each point
	phasor [][]complex128 // phasor[i][k] is tap k's unit phasor at point i
	raw    float64        // Σ|si|², the in-band SI power
	amp    []float64      // scratch for the taps' current amplitudes
	res    []complex128   // residual's output
}

// newBand samples the SI channel and the canceller's taps at nFreq points
// of the band [-bw/2, +bw/2]; fewer than 2 points are raised to 2, the
// band's edges.
func (a *AnalogCanceller) newBand(si *SIChannel, bw float64, nFreq int) *band {
	nFreq = max(nFreq, 2)
	b := &band{
		si:     make([]complex128, nFreq),
		phasor: make([][]complex128, nFreq),
		amp:    make([]float64, len(a.TapDelaysS)),
		res:    make([]complex128, nFreq),
	}
	for i := range b.si {
		f := -bw/2 + bw*float64(i)/float64(nFreq-1)
		h := si.FreqResponse(f)
		b.si[i] = h
		b.raw += real(h)*real(h) + imag(h)*imag(h)
		b.phasor[i] = make([]complex128, len(a.TapDelaysS))
		for k, tau := range a.TapDelaysS {
			s, c := math.Sincos(-2 * math.Pi * (CarrierHz + f) * tau)
			b.phasor[i][k] = complex(c, s)
		}
	}
	return b
}

// residual returns si − Σ_k amp[k]·φ_k at each point, adding the taps in
// order; a zero amplitude (a tap that is off) adds nothing. The slice is
// b's, overwritten by the next call.
func (b *band) residual(amp []float64) []complex128 {
	for i, ph := range b.phasor {
		var acc complex128
		for k, p := range ph {
			if amp[k] != 0 {
				acc += complex(amp[k]*real(p), amp[k]*imag(p))
			}
		}
		b.res[i] = b.si[i] - acc
	}
	return b.res
}

// fitDB is the in-band cancellation of the fit Σ_k amp[k]·φ_k.
func (b *band) fitDB(amp []float64) float64 {
	var res float64
	for _, r := range b.residual(amp) {
		res += real(r)*real(r) + imag(r)*imag(r)
	}
	return ratioDB(b.raw, res)
}

// amps returns each tap's amplitude at its current attenuator setting, 0
// for a tap that is off, in b's scratch.
func (a *AnalogCanceller) amps(b *band) []float64 {
	for k, att := range a.AttenDB {
		b.amp[k] = a.RefAmps[k] * math.Pow(10, -att/20)
	}
	return b.amp
}

// cancellationDB measures the in-band cancellation of the current
// attenuator setting.
func (a *AnalogCanceller) cancellationDB(b *band) float64 {
	return b.fitDB(a.amps(b))
}

// ratioDB is the power ratio raw/res in dB, capped at the physical
// MaxCancellationDB; a zero residual reads as the cap.
func ratioDB(raw, res float64) float64 {
	if res <= 0 {
		return MaxCancellationDB
	}
	return min(10*math.Log10(raw/res), MaxCancellationDB)
}

// Tune fits the attenuators to cancel the SI channel over the band
// [-bw/2, +bw/2], sampled at nFreq points. The fit is a sequential
// noise-shaping quantization: taps are fixed one at a time from the
// strongest coupling down, each time re-solving a non-negative least
// squares over the still-free taps so they absorb the quantization error
// of the taps already fixed — followed by a coordinate-descent polish of
// the attenuator settings (the baseband tuning loop of Sec 4.3). It
// returns the achieved in-band cancellation in dB and leaves per-call
// observability in LastTune.
func (a *AnalogCanceller) Tune(si *SIChannel, bw float64, nFreq int) float64 {
	b := a.newBand(si, bw, nFreq)
	a.LastTune = TuneStats{UnquantizedDB: b.unquantizedFitDB()}
	nT := len(a.TapDelaysS)
	for i := range a.AttenDB {
		a.AttenDB[i] = math.Inf(1)
	}
	fixed := make([]bool, nT)
	for fix := 0; fix < nT; fix++ {
		// Residual target: SI minus the taps already fixed.
		gains, ok := b.nnls(b.residual(a.amps(b)), fixed)
		if !ok {
			break
		}
		// Fix the free tap with the largest demanded gain; later re-solves
		// let the remaining taps absorb its quantization (and saturation)
		// error.
		tap, bestG := -1, -1.0
		for i := 0; i < nT; i++ {
			if !fixed[i] && gains[i] > bestG {
				tap, bestG = i, gains[i]
			}
		}
		if tap < 0 {
			break
		}
		a.AttenDB[tap] = a.quantizeGain(tap, gains[tap])
		fixed[tap] = true
	}
	a.LastTune.RefineIterations += a.refine(b)
	a.LastTune.RefineIterations += a.pairRefine(b)
	// Basin hopping: the quantized landscape has local optima; perturb and
	// re-descend, keeping the best setting found. This is the software
	// analogue of the hardware tuner's repeated measurement-driven sweeps.
	best := a.cancellationDB(b)
	bestAtt := append([]float64(nil), a.AttenDB...)
	h := uint64(0x9e3779b97f4a7c15)
	for hop := 0; hop < 4; hop++ {
		copy(a.AttenDB, bestAtt)
		for i := range a.AttenDB {
			// Deterministic pseudo-random perturbation.
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			step := float64(int(h%33)-16) * AttenStepDB
			if math.IsInf(a.AttenDB[i], 1) {
				if h%5 == 0 {
					a.AttenDB[i] = AttenMaxDB - math.Abs(step)
				}
				continue
			}
			v := max(a.AttenDB[i]+step, 0)
			if v > AttenMaxDB {
				v = math.Inf(1)
			}
			a.AttenDB[i] = v
		}
		a.LastTune.RefineIterations += a.refine(b)
		a.LastTune.RefineIterations += a.pairRefine(b)
		if got := a.cancellationDB(b); got > best {
			best = got
			copy(bestAtt, a.AttenDB)
		}
	}
	copy(a.AttenDB, bestAtt)
	a.LastTune.QuantizedDB = best
	return best
}

// unquantizedFitDB solves the continuous non-negative least-squares fit
// with every tap free and no attenuator quantization, and returns the
// cancellation it would achieve — the upper bound the quantized tuner
// works toward.
func (b *band) unquantizedFitDB() float64 {
	gains, ok := b.nnls(b.si, make([]bool, len(b.amp)))
	if !ok {
		return 0
	}
	return b.fitDB(gains)
}

// sweepTap tries every attenuator step of tap j, then off, and keeps the
// first setting whose cancellation beats the bar floor, raising the bar to
// each one it keeps. It leaves tap j at the kept setting (cur when none
// beat floor) and returns it with its cancellation (floor when none did).
func (a *AnalogCanceller) sweepTap(b *band, j int, cur, floor float64) (float64, float64) {
	nLevels := int(AttenMaxDB/AttenStepDB) + 1
	keep, bar := cur, floor
	for l := 0; l <= nLevels; l++ {
		a.AttenDB[j] = math.Inf(1)
		if l < nLevels {
			a.AttenDB[j] = float64(l) * AttenStepDB
		}
		if got := a.cancellationDB(b); got > bar {
			keep, bar = a.AttenDB[j], got
		}
	}
	a.AttenDB[j] = keep
	return keep, bar
}

// pairRefine extends the coordinate descent with coordinated two-tap moves:
// nudge tap i by a few attenuator steps, then exhaustively re-optimize tap
// j. Single-tap moves stall once every tap is pinned by the bulk fit; pair
// moves let one tap migrate to a deep-attenuation trim role while another
// absorbs the bulk shift. Returns the number of sweeps performed.
func (a *AnalogCanceller) pairRefine(b *band) int {
	best := a.cancellationDB(b)
	iters := 0
	for iter := 0; iter < 2; iter++ {
		iters++
		improved := false
		for i := range a.AttenDB {
			for j := range a.AttenDB {
				if i == j {
					continue
				}
				saveI, saveJ := a.AttenDB[i], a.AttenDB[j]
				for _, di := range []float64{-2, -1, 1, 2} {
					vi := saveI + di*AttenStepDB
					if math.IsInf(saveI, 1) {
						vi = AttenMaxDB + di*AttenStepDB
					}
					if vi < 0 || vi > AttenMaxDB {
						continue
					}
					a.AttenDB[i] = vi
					if bestJ, got := a.sweepTap(b, j, saveJ, -1); got > best {
						best = got
						saveI, saveJ = vi, bestJ
						improved = true
					} else {
						a.AttenDB[i], a.AttenDB[j] = saveI, saveJ
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return iters
}

// nnls solves min ||target - Σ g_k φ_k||² over the band's points and the
// taps not yet fixed, with g_k ≥ 0, by iterated least squares with
// active-set clamping and a small ridge, returning per-tap gains.
func (b *band) nnls(target []complex128, fixed []bool) ([]float64, bool) {
	nFreq := len(b.si)
	var idx []int
	for i, f := range fixed {
		if !f {
			idx = append(idx, i)
		}
	}
	gains := make([]float64, len(fixed))
	if len(idx) == 0 {
		return gains, true
	}
	// Real-valued design matrix: rows are [Re; Im] over the band, one
	// column per free tap.
	rows := 2 * nFreq
	cols := len(idx)
	A := make([][]float64, rows)
	y := make([]float64, rows)
	for fi, ph := range b.phasor {
		A[fi] = make([]float64, cols)
		A[nFreq+fi] = make([]float64, cols)
		y[fi] = real(target[fi])
		y[nFreq+fi] = imag(target[fi])
		for ji, j := range idx {
			A[fi][ji] = real(ph[j])
			A[nFreq+fi][ji] = imag(ph[j])
		}
	}
	g, ok := linalg.NNLS(A, y, 1e-6)
	if !ok {
		return gains, false
	}
	for ji, j := range idx {
		gains[j] = g[ji]
	}
	return gains, true
}

// quantizeGain maps a desired linear gain for tap i to the nearest
// attenuator grid setting (or off).
func (a *AnalogCanceller) quantizeGain(i int, g float64) float64 {
	minAmp := a.RefAmps[i] * math.Pow(10, -AttenMaxDB/20)
	if g < minAmp/2 {
		return math.Inf(1)
	}
	att := -20 * math.Log10(g/a.RefAmps[i])
	if att < 0 {
		att = 0
	}
	att = math.Round(att/AttenStepDB) * AttenStepDB
	if att > AttenMaxDB {
		return math.Inf(1)
	}
	return att
}

// refine performs coordinate descent over the quantized attenuator grid:
// independent rounding of each tap limits cancellation to ~40 dB, but taps
// with different phases form a fine joint lattice, so stepping attenuators
// against the measured residual — exactly what the hardware's baseband
// tuning loop does (Sec 4.3) — recovers the deep null. Returns the number
// of sweeps performed.
func (a *AnalogCanceller) refine(b *band) int {
	best := a.cancellationDB(b)
	iters := 0
	for iter := 0; iter < 200; iter++ {
		iters++
		improved := false
		for i := range a.AttenDB {
			if _, got := a.sweepTap(b, i, a.AttenDB[i], best); got > best {
				best = got
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return iters
}

// CancellationDB measures the in-band power ratio between the raw SI and
// the post-cancellation residual, in dB, over nFreq points of the band
// [-bw/2, +bw/2] (at least its two edges).
func (a *AnalogCanceller) CancellationDB(si *SIChannel, bw float64, nFreq int) float64 {
	return a.cancellationDB(a.newBand(si, bw, nFreq))
}

// ResidualFIR returns the baseband sample-domain FIR of the SI channel
// minus the tuned analog canceller — what the digital stage sees.
func (a *AnalogCanceller) ResidualFIR(si *SIChannel, sampleRate float64, nTaps, alignDelay int) []complex128 {
	taps := si.BasebandFIR(sampleRate, nTaps, alignDelay)
	// Subtract the canceller's paths the same way.
	canc := &SIChannel{}
	for i, tau := range a.TapDelaysS {
		if math.IsInf(a.AttenDB[i], 1) {
			continue
		}
		canc.Paths = append(canc.Paths, SIPath{
			DelayS: tau,
			GainDB: 20*math.Log10(a.RefAmps[i]) - a.AttenDB[i],
		})
	}
	ctaps := canc.BasebandFIR(sampleRate, nTaps, alignDelay)
	for i := range taps {
		taps[i] -= ctaps[i]
	}
	return taps
}

// EstimateFIR estimates a causal FIR h (nTaps taps) such that rx ≈ h * ref
// by least squares, with optional Tikhonov regularization. ref is the known
// reference signal (the transmitted samples, or the injected tuning noise);
// rx is the observed receive signal. Both must have equal length, and the
// estimate uses samples from nTaps-1 onward to avoid edge effects.
func EstimateFIR(ref, rx []complex128, nTaps int, lambda float64) ([]complex128, error) {
	if len(ref) != len(rx) {
		panic("sic: EstimateFIR length mismatch")
	}
	rows := len(ref) - nTaps + 1
	if rows < nTaps {
		panic("sic: EstimateFIR needs more samples than taps")
	}
	A := linalg.NewMatrix(rows, nTaps)
	b := make([]complex128, rows)
	for r := 0; r < rows; r++ {
		n := r + nTaps - 1
		b[r] = rx[n]
		for k := 0; k < nTaps; k++ {
			A.Set(r, k, ref[n-k])
		}
	}
	return linalg.LeastSquares(A, b, lambda)
}

// DigitalCanceller is the streaming causal digital cancellation stage: it
// subtracts FIR(tx) from the received samples with *zero* added latency —
// tap 0 applies to the sample currently being transmitted, so no received
// samples are ever buffered (Fig 9a). Every path is bit-exact with Push:
// blocks go through dsp.FIR.CancelBlock, the canceller of the relay's
// forward chain.
type DigitalCanceller struct {
	fir *dsp.FIR
}

// NewDigitalCanceller builds the canceller from estimated SI taps.
func NewDigitalCanceller(taps []complex128) *DigitalCanceller {
	return &DigitalCanceller{fir: dsp.NewFIR(taps)}
}

// Push consumes one transmitted sample and one received sample and returns
// the cleaned received sample.
func (d *DigitalCanceller) Push(tx, rx complex128) complex128 {
	return rx - d.fir.Push(tx)
}

// Process cleans whole blocks (state is preserved across calls).
func (d *DigitalCanceller) Process(tx, rx []complex128) []complex128 {
	out := make([]complex128, len(rx)) //fflint:allow allocfree allocating convenience wrapper; hot paths call ProcessInto with caller-owned buffers
	d.ProcessInto(out, tx, rx)
	return out
}

// ProcessInto cleans a block into a caller-owned buffer, avoiding the
// per-call allocation of Process. out and rx may alias.
func (d *DigitalCanceller) ProcessInto(out, tx, rx []complex128) {
	if len(tx) != len(rx) || len(out) != len(rx) {
		panic("sic: Process length mismatch")
	}
	copy(out, rx)
	d.fir.CancelBlock(out, tx)
}

// Reset clears canceller state.
func (d *DigitalCanceller) Reset() { d.fir.Reset() }

// MeasureCancellationDB returns the achieved cancellation: the power ratio
// of the self-interference before and after cancellation, capped at the
// physical MaxCancellationDB ceiling.
func MeasureCancellationDB(siPower, residualPower float64) float64 {
	if siPower <= 0 {
		return 0
	}
	return max(ratioDB(siPower, residualPower), 0)
}
