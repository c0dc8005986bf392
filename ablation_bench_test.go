// Ablation benchmarks for the design choices called out in DESIGN.md §5.
// Each benchmark isolates one design decision and reports the quantity it
// trades, so `go test -bench Ablation` documents why the paper's choices
// are what they are.
package fastforward_test

import (
	"math/cmplx"
	"testing"

	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
	"fastforward/internal/sic"
	"fastforward/internal/testbed"
)

// BenchmarkAblationCausalVsNonCausal quantifies Sec 3.3's trade: a causal
// digital canceller adds zero delay but needs more taps; a non-causal one
// (which buffers received samples to peek at future transmitted ones) can
// be shorter but costs buffering latency that would push the relayed
// signal outside the CP. Reported: residual after cancellation for a
// causal 24-tap filter vs a short 8-tap filter, plus the delay a 5-sample
// buffer would cost (250 ns at 20 Msps — over half the CP).
func BenchmarkAblationCausalVsNonCausal(b *testing.B) {
	src := rng.New(1)
	si := sic.NewTypicalSIChannel(src)
	a := sic.NewAnalogCanceller(1.0)
	a.Tune(si, 20e6, 16)
	residual := a.ResidualFIR(si, 20e6, 16, 2)
	tx := src.NoiseVector(8000, 100)
	rx := dsp.Add(dsp.FilterSame(tx, residual), src.NoiseVector(8000, 1e-9))

	var longC, shortC float64
	for i := 0; i < b.N; i++ {
		long, err := sic.EstimateFIR(tx, rx, 24, 0)
		if err != nil {
			b.Fatal(err)
		}
		longC = sic.MeasureCancellationDB(dsp.Power(tx),
			dsp.Power(sic.NewDigitalCanceller(long).Process(tx, rx)))
		short, err := sic.EstimateFIR(tx, rx, 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		shortC = sic.MeasureCancellationDB(dsp.Power(tx),
			dsp.Power(sic.NewDigitalCanceller(short).Process(tx, rx)))
	}
	b.ReportMetric(longC, "causal24tapDB")
	b.ReportMetric(shortC, "causal8tapDB")
	b.ReportMetric(5.0/20e6*1e9, "nonCausalBufferNs")
}

// BenchmarkAblationPreFilterTaps sweeps the digital pre-filter tap budget
// (Sec 3.4: each tap costs 12.5 ns; the paper picks 4 for a 50 ns budget)
// and reports the synthesis fit error per budget over frequency-selective
// channels.
func BenchmarkAblationPreFilterTaps(b *testing.B) {
	src := rng.New(2)
	p := ofdm.Default20MHz()
	carriers := p.DataCarriers
	mk := func() []complex128 {
		hsd := channel.NewRayleigh(src, 3, 0.5, 1e-9).ResponseVector(carriers, p.NFFT)
		hsr := channel.NewRayleigh(src, 3, 0.5, 1e-6).ResponseVector(carriers, p.NFFT)
		hrd := channel.NewRayleigh(src, 3, 0.5, 1e-7).ResponseVector(carriers, p.NFFT)
		return cnf.DesiredSISO(hsd, hsr, hrd, 55)
	}
	fits := map[int]float64{}
	for i := 0; i < b.N; i++ {
		desired := mk()
		for _, taps := range []int{1, 2, 4, 8} {
			impl := cnf.SynthesizeWithBudget(desired, carriers, p.NFFT, p.SampleRate, taps)
			fits[taps] = impl.FitErrorDB
		}
	}
	b.ReportMetric(fits[1], "fit1tapDB")
	b.ReportMetric(fits[2], "fit2tapDB")
	b.ReportMetric(fits[4], "fit4tapDB")
	b.ReportMetric(fits[8], "fit8tapDB")
	b.ReportMetric(float64(4-1)/cnf.PreFilterRate*1e9+3, "delay4tapNs")
}

// BenchmarkAblationMIMOOptimizer compares the Eq. 2 determinant optimizer
// against naive filter choices at equal relay power: identity forwarding
// and a random rotation. Reported: the mean effective-channel determinant
// gain over the direct channel for each strategy.
func BenchmarkAblationMIMOOptimizer(b *testing.B) {
	src := rng.New(3)
	var optG, idG, rndG float64
	const n = 16
	amp := dsp.AmplitudeFromDB(55)
	for i := 0; i < b.N; i++ {
		optG, idG, rndG = 0, 0, 0
		for k := 0; k < n; k++ {
			Hsd := randMat(src, 2, 2, 1e-8)
			Hsr := randMat(src, 2, 2, 1e-6)
			Hrd := randMat(src, 2, 2, 1e-7)
			direct := cmplx.Abs(linalg.ToMat2(Hsd).Det())
			det := func(F *linalg.Matrix) float64 {
				return cmplx.Abs(linalg.ToMat2(Hsd.Add(Hrd.Mul(F).Mul(Hsr))).Det())
			}
			FA := cnf.DesiredMIMO([]*linalg.Matrix{Hsd}, []*linalg.Matrix{Hsr},
				[]*linalg.Matrix{Hrd}, 55, src)[0]
			optG += det(FA) / direct
			idG += det(linalg.Identity(2).Scale(amp)) / direct
			rndG += det(linalg.FromRows(src.RandomUnitary(2)).Scale(amp)) / direct
		}
	}
	b.ReportMetric(optG/n, "optimizedDetGain")
	b.ReportMetric(idG/n, "identityDetGain")
	b.ReportMetric(rndG/n, "randomDetGain")
}

// BenchmarkAblationNoiseRule compares the Sec 3.5 noise-aware
// amplification (A = min(C−3, a−3)) against max-cancellation amplification
// with the CNF filter kept on: the rule protects clients from amplified
// relay noise. Reported: the median relay gain vs AP-only with the rule on
// and off.
func BenchmarkAblationNoiseRule(b *testing.B) {
	var withRule, withoutRule float64
	for i := 0; i < b.N; i++ {
		cfgOn := testbed.DefaultConfig(1)
		cfgOn.GridSpacingM = 2.5
		cfgOn.CarrierStride = 8
		cfgOff := cfgOn
		cfgOff.NoiseRule = false
		withRule = testbed.RunFig12(cfgOn).MedianFFvsAP
		withoutRule = testbed.RunFig12(cfgOff).MedianFFvsAP
	}
	b.ReportMetric(withRule, "noiseRuleOnMedianx")
	b.ReportMetric(withoutRule, "noiseRuleOffMedianx")
}

// BenchmarkAblationAnalogOnlyCNF isolates the digital pre-filter's role:
// with only the analog rotator (1-tap digital = a scalar), frequency-
// selective channels cannot be aligned across the band (Sec 3.4's
// motivation for the pre-filter).
func BenchmarkAblationAnalogOnlyCNF(b *testing.B) {
	src := rng.New(4)
	p := ofdm.Default20MHz()
	carriers := p.DataCarriers
	budget := cnf.LinkBudget{TxPowerMW: 100, NoiseFloorMW: 1e-9, RelayNoiseMW: 1e-9}
	var analogOnly, cascade float64
	for i := 0; i < b.N; i++ {
		hsd := channel.NewRayleigh(src, 3, 0.5, 1e-9).ResponseVector(carriers, p.NFFT)
		hsr := channel.NewRayleigh(src, 3, 0.5, 1e-6).ResponseVector(carriers, p.NFFT)
		hrd := channel.NewRayleigh(src, 3, 0.5, 1e-7).ResponseVector(carriers, p.NFFT)
		ideal := cnf.DesiredSISO(hsd, hsr, hrd, 55)
		one := cnf.SynthesizeWithBudget(ideal, carriers, p.NFFT, p.SampleRate, 1)
		four := cnf.SynthesizeWithBudget(ideal, carriers, p.NFFT, p.SampleRate, 4)
		analogOnly = cnf.MeanSNRdB(cnf.DestSNRdB(hsd, hsr, hrd,
			one.ApplyImplementation(carriers, p.NFFT, p.SampleRate), budget))
		cascade = cnf.MeanSNRdB(cnf.DestSNRdB(hsd, hsr, hrd,
			four.ApplyImplementation(carriers, p.NFFT, p.SampleRate), budget))
	}
	b.ReportMetric(analogOnly, "analogOnlySNRdB")
	b.ReportMetric(cascade, "cascadeSNRdB")
}

func randMat(src *rng.Source, rows, cols int, g float64) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.ComplexGaussian(g)
	}
	return m
}
