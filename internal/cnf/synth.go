package cnf

import (
	"math"
	"math/cmplx"

	"fastforward/internal/linalg"
)

// Analog rotation filter geometry (Fig 10): four delay lines a quarter
// carrier period apart, i.e. 100 ps steps at 2.45 GHz, spanning 360°.
const (
	CarrierHz        = 2.45e9
	AnalogTapSpacing = 100e-12
	AnalogTaps       = 4
	// AnalogFilterDelayS is the analog filter's processing delay (Sec 3.4
	// quotes ~3 ns including routing).
	AnalogFilterDelayS = 3e-9
	// PreFilterRate is the digital pre-filter's sampling rate (80 Msps).
	PreFilterRate = 80e6
	// PreFilterTaps is the pre-filter length: 4 taps × 12.5 ns = 50 ns,
	// the paper's digital delay budget.
	PreFilterTaps = 4
	// ConverterDelayS models ADC+DAC latency (Sec 3.3: ~50 ns).
	ConverterDelayS = 50e-9
)

// FilterImpl is the implementable constructive filter: a short complex
// digital pre-filter cascaded with the 4-line analog rotation filter.
type FilterImpl struct {
	// DigitalTaps are the pre-filter coefficients at PreFilterRate.
	DigitalTaps []complex128
	// AnalogGains are the non-negative gains on the four analog delay
	// lines (0, 100, 200, 300 ps).
	AnalogGains []float64
	// FitErrorDB is the residual of the synthesis relative to the desired
	// response power (lower/more negative is better).
	FitErrorDB float64
}

// DigitalResponse evaluates the pre-filter at baseband frequency f.
func (fi *FilterImpl) DigitalResponse(f float64) complex128 {
	var acc complex128
	for n, h := range fi.DigitalTaps {
		acc += h * digitalBasis(f, n)
	}
	return acc
}

// AnalogResponse evaluates the analog rotation filter at baseband
// frequency f (phases computed at RF, which is what makes 100 ps lines a
// 90° rotator).
func (fi *FilterImpl) AnalogResponse(f float64) complex128 {
	var acc complex128
	for k, g := range fi.AnalogGains {
		acc += complex(g, 0) * analogBasis(f, k)
	}
	return acc
}

// digitalBasis is pre-filter tap n's response at baseband frequency f.
func digitalBasis(f float64, n int) complex128 {
	return cmplx.Exp(complex(0, -2*math.Pi*f*float64(n)/PreFilterRate))
}

// analogBasis is analog delay line k's response at baseband frequency f.
func analogBasis(f float64, k int) complex128 {
	tau := float64(k) * AnalogTapSpacing
	return cmplx.Exp(complex(0, -2*math.Pi*(CarrierHz+f)*tau))
}

// Response is the cascade Hp(f)·Ha(f).
func (fi *FilterImpl) Response(f float64) complex128 {
	return fi.DigitalResponse(f) * fi.AnalogResponse(f)
}

// LatencyS returns the filter's worst-case processing delay: the full
// digital tap span plus the analog filter delay (converters are accounted
// separately by the relay).
func (fi *FilterImpl) LatencyS() float64 {
	return float64(len(fi.DigitalTaps)-1)/PreFilterRate + AnalogFilterDelayS
}

// TapEnergy returns the total energy Σ|h|² of the digital pre-filter taps
// — the manifest metric cnf.tap_energy. A synthesis that needs huge
// opposing taps to hit its target is fragile (quantization- and
// staleness-sensitive), so tap energy drifting up flags a degrading fit
// even while FitErrorDB still looks healthy.
func (fi *FilterImpl) TapEnergy() float64 {
	var e float64
	for _, h := range fi.DigitalTaps {
		e += real(h)*real(h) + imag(h)*imag(h)
	}
	return e
}

// Synthesize splits a desired per-subcarrier response Hc across the
// digital pre-filter and the analog rotation filter by alternating least
// squares (the SCP of Sec 3.4): holding one stage fixed, the other's fit
// is convex. carriers/nfft/sampleRate define the subcarrier frequencies of
// the desired response. With no carriers there is nothing to fit, and the
// result is the initial unit-impulse filter with FitErrorDB 0.
func Synthesize(desired []complex128, carriers []int, nfft int, sampleRate float64) *FilterImpl {
	return SynthesizeWithBudget(desired, carriers, nfft, sampleRate, PreFilterTaps)
}

// SynthesizeWithBudget is Synthesize with an explicit digital pre-filter
// tap budget (each tap costs 12.5 ns of delay at 80 Msps); used by the
// tap-budget ablation.
func SynthesizeWithBudget(desired []complex128, carriers []int, nfft int, sampleRate float64, nTaps int) *FilterImpl {
	return newSynthWork(carriers, nfft, sampleRate, nTaps).synthesize(desired)
}

// synthWork is the workspace of the alternating least squares for one
// carrier set: the basis tables, which depend only on the carriers, and
// the buffers of both stages' fits, allocated once and reused by every
// filter synthesized on those carriers (SynthesizeMIMO's antenna pairs).
type synthWork struct {
	n, nTaps int
	// analog[i*AnalogTaps+k] is analogBasis(f_i, k) and
	// digital[i*nTaps+m] is digitalBasis(f_i, m), for carrier frequency
	// f_i.
	analog, digital []complex128

	A     [][]float64 // 2n×AnalogTaps: stage 1's real design matrix
	b     []float64   // 2n
	gains []float64   // AnalogTaps
	nnls  *linalg.NNLSScratch

	M    linalg.Matrix // n×nTaps: stage 2's design matrix
	taps []complex128  // nTaps
	ls   *linalg.LSScratch
}

func newSynthWork(carriers []int, nfft int, sampleRate float64, nTaps int) *synthWork {
	if nTaps < 1 {
		nTaps = 1
	}
	n := len(carriers)
	w := &synthWork{n: n, nTaps: nTaps}
	if n == 0 {
		return w
	}
	w.analog = make([]complex128, n*AnalogTaps)
	w.digital = make([]complex128, n*nTaps)
	for i, k := range carriers {
		f := float64(k) * sampleRate / float64(nfft)
		for a := 0; a < AnalogTaps; a++ {
			w.analog[i*AnalogTaps+a] = analogBasis(f, a)
		}
		for m := 0; m < nTaps; m++ {
			w.digital[i*nTaps+m] = digitalBasis(f, m)
		}
	}
	rowBuf := make([]float64, 2*n*AnalogTaps)
	w.A = make([][]float64, 2*n)
	for r := range w.A {
		w.A[r] = rowBuf[r*AnalogTaps : (r+1)*AnalogTaps : (r+1)*AnalogTaps]
	}
	w.b = make([]float64, 2*n)
	w.gains = make([]float64, AnalogTaps)
	w.nnls = linalg.NewNNLSScratch(2*n, AnalogTaps)
	w.M = linalg.Matrix{Rows: n, Cols: nTaps, Data: make([]complex128, n*nTaps)}
	w.taps = make([]complex128, nTaps)
	w.ls = linalg.NewLSScratch(nTaps)
	return w
}

// digitalAt and analogAt are impl's stage responses at carrier i, summed
// from the tables in the order of DigitalResponse and AnalogResponse.
func (w *synthWork) digitalAt(impl *FilterImpl, i int) complex128 {
	var acc complex128
	for m, h := range impl.DigitalTaps {
		acc += h * w.digital[i*w.nTaps+m]
	}
	return acc
}

func (w *synthWork) analogAt(impl *FilterImpl, i int) complex128 {
	var acc complex128
	for k, g := range impl.AnalogGains {
		acc += complex(g, 0) * w.analog[i*AnalogTaps+k]
	}
	return acc
}

// synthesize fits desired (one value per carrier of w) and returns the
// new filter; only the returned FilterImpl is allocated.
func (w *synthWork) synthesize(desired []complex128) *FilterImpl {
	if len(desired) != w.n {
		panic("cnf: Synthesize length mismatch")
	}
	n, nTaps := w.n, w.nTaps
	impl := &FilterImpl{
		DigitalTaps: make([]complex128, nTaps),
		AnalogGains: make([]float64, AnalogTaps),
	}
	// Initialize: all rotation in the analog stage, unit impulse digital.
	impl.DigitalTaps[0] = 1
	if n == 0 {
		return impl
	}

	for iter := 0; iter < 12; iter++ {
		// Stage 1: fit analog gains (non-negative reals) to
		// desired/Hp per frequency, weighted by |Hp|.
		for i := 0; i < n; i++ {
			hp := w.digitalAt(impl, i)
			t := desired[i]
			for k := 0; k < AnalogTaps; k++ {
				phi := w.analog[i*AnalogTaps+k] * hp
				w.A[i][k] = real(phi)
				w.A[n+i][k] = imag(phi)
			}
			w.b[i] = real(t)
			w.b[n+i] = imag(t)
		}
		if linalg.NNLSInto(w.gains, w.A, w.b, 1e-9, w.nnls) {
			copy(impl.AnalogGains, w.gains)
		}
		// Stage 2: fit digital taps (complex LS) to desired/Ha.
		for i := 0; i < n; i++ {
			ha := w.analogAt(impl, i)
			for m := 0; m < nTaps; m++ {
				w.M.Data[i*nTaps+m] = w.digital[i*nTaps+m] * ha
			}
		}
		if err := linalg.LeastSquaresInto(w.taps, &w.M, desired, 1e-12, w.ls); err == nil {
			copy(impl.DigitalTaps, w.taps)
		}
	}
	// Fit quality.
	var sig, res float64
	for i, d := range desired {
		r := d - w.digitalAt(impl, i)*w.analogAt(impl, i)
		sig += absSq(d)
		res += absSq(r)
	}
	if sig > 0 && res > 0 {
		impl.FitErrorDB = 10 * math.Log10(res/sig)
	} else if res == 0 {
		impl.FitErrorDB = math.Inf(-1)
	}
	return impl
}

// ApplyImplementation returns the per-subcarrier response of the
// synthesized filter at the given carriers — the Hc actually delivered,
// for plugging into EffectiveSISO/DestSNRdB in place of the ideal filter.
func (fi *FilterImpl) ApplyImplementation(carriers []int, nfft int, sampleRate float64) []complex128 {
	out := make([]complex128, len(carriers))
	for i, k := range carriers {
		out[i] = fi.Response(float64(k) * sampleRate / float64(nfft))
	}
	return out
}
