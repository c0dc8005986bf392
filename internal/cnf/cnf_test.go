package cnf

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/channel"
	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
)

func randChannels(src *rng.Source, n int) (hsd, hsr, hrd []complex128) {
	hsd = make([]complex128, n)
	hsr = make([]complex128, n)
	hrd = make([]complex128, n)
	for i := 0; i < n; i++ {
		hsd[i] = src.ComplexGaussian(1e-8) // weak direct (-80 dB)
		hsr[i] = src.ComplexGaussian(1e-6) // source->relay (-60 dB)
		hrd[i] = src.ComplexGaussian(1e-7) // relay->dest (-70 dB)
	}
	return
}

func TestAmplificationLimit(t *testing.T) {
	// Cancellation-bound: 110 dB cancellation, 80 dB path loss -> 77 dB.
	if got := AmplificationLimitDB(110, 80); got != 77 {
		t.Errorf("got %v, want 77", got)
	}
	// Stability-bound: 60 dB cancellation, 100 dB path loss -> 57 dB.
	if got := AmplificationLimitDB(60, 100); got != 57 {
		t.Errorf("got %v, want 57", got)
	}
	// Never negative.
	if got := AmplificationLimitDB(2, 1); got != 0 {
		t.Errorf("got %v, want 0", got)
	}
}

func TestDesiredSISOAligns(t *testing.T) {
	src := rng.New(1)
	hsd, hsr, hrd := randChannels(src, 52)
	hc := DesiredSISO(hsd, hsr, hrd, 60)
	for i := range hsd {
		// The relayed term must be phase-aligned with the direct term.
		relayed := hrd[i] * hc[i] * hsr[i]
		if hsd[i] == 0 || relayed == 0 {
			continue
		}
		dphi := cmplx.Phase(relayed) - cmplx.Phase(hsd[i])
		for dphi > math.Pi {
			dphi -= 2 * math.Pi
		}
		for dphi < -math.Pi {
			dphi += 2 * math.Pi
		}
		if math.Abs(dphi) > 1e-9 {
			t.Fatalf("subcarrier %d: phase misalignment %v rad", i, dphi)
		}
		// Magnitude of the filter equals the amplification.
		if math.Abs(cmplx.Abs(hc[i])-dsp.AmplitudeFromDB(60)) > 1e-9 {
			t.Fatalf("subcarrier %d: |Hc| = %v", i, cmplx.Abs(hc[i]))
		}
	}
}

func TestConstructiveBeatsBlindAndDestructive(t *testing.T) {
	// The core claim of Fig 5: with the CNF filter the combined channel
	// magnitude is |hsd| + |hrd·A·hsr| (fully coherent), which beats any
	// other phase choice.
	src := rng.New(2)
	hsd, hsr, hrd := randChannels(src, 52)
	ampDB := 60.0
	hc := DesiredSISO(hsd, hsr, hrd, ampDB)
	heff := EffectiveSISO(hsd, hsr, hrd, hc)
	amp := dsp.AmplitudeFromDB(ampDB)
	for i := range heff {
		want := cmplx.Abs(hsd[i]) + amp*cmplx.Abs(hrd[i]*hsr[i])
		if math.Abs(cmplx.Abs(heff[i])-want) > 1e-12*want {
			t.Fatalf("subcarrier %d: |heff| = %v, want coherent sum %v",
				i, cmplx.Abs(heff[i]), want)
		}
		// Blind forwarding (no rotation) cannot beat it.
		blind := hsd[i] + hrd[i]*complex(amp, 0)*hsr[i]
		if cmplx.Abs(blind) > cmplx.Abs(heff[i])+1e-12 {
			t.Fatalf("blind beat constructive at %d", i)
		}
	}
}

func TestDestSNRIncludesRelayNoise(t *testing.T) {
	// With huge amplification, the relay noise term must cap the SNR.
	hsd := []complex128{1e-5}
	hsr := []complex128{1e-3}
	hrd := []complex128{1e-3}
	b := LinkBudget{TxPowerMW: 100, NoiseFloorMW: 1e-9, RelayNoiseMW: 1e-9}
	modest := DestSNRdB(hsd, hsr, hrd, DesiredSISO(hsd, hsr, hrd, 50), b)
	huge := DestSNRdB(hsd, hsr, hrd, DesiredSISO(hsd, hsr, hrd, 120), b)
	// At 120 dB amplification the relay noise dominates: SNR approaches
	// |heff|²·P/(|hrd·Hc|²·Nr) which is bounded; it must not be 70 dB above
	// the modest case.
	if huge[0] > modest[0]+70 {
		t.Errorf("relay noise not accounted: modest %v dB, huge %v dB", modest[0], huge[0])
	}
}

func TestNoiseRuleKeepsRelayNoiseBelowFloor(t *testing.T) {
	// Sec 3.5's worked example: relay->destination attenuation 80 dB,
	// amplification 77 dB: relay noise arrives 3 dB below the floor.
	rdLossDB := 80.0
	ampDB := AmplificationLimitDB(110, rdLossDB)
	if ampDB != 77 {
		t.Fatalf("amp = %v", ampDB)
	}
	relayNoiseAtDest := channel.NoiseFloorMW() * dsp.Linear(ampDB) * dsp.Linear(-rdLossDB)
	// The margin is exactly 3 dB: the arriving relay noise must sit at
	// −93 dBm, i.e. 3 dB (within rounding) below the −90 dBm floor.
	if relayNoiseAtDest > channel.NoiseFloorMW()*dsp.Linear(-2.99) {
		t.Errorf("relay noise at destination %v not >=3 dB below the floor %v",
			relayNoiseAtDest, channel.NoiseFloorMW())
	}
}

func TestMeanSNR(t *testing.T) {
	if got := MeanSNRdB([]float64{10, 10, 10}); math.Abs(got-10) > 1e-9 {
		t.Errorf("uniform mean = %v", got)
	}
	// Power-domain averaging: one strong subcarrier dominates.
	got := MeanSNRdB([]float64{30, 0, 0})
	if got < 24 || got > 26 {
		t.Errorf("mean of {30,0,0} dB = %v, want ~25.2", got)
	}
}

func mimoChannels(src *rng.Source, n, k int, gsd, gsr, grd float64) (Hsd, Hsr, Hrd []*linalg.Matrix) {
	mk := func(rows, cols int, g float64) *linalg.Matrix {
		m := linalg.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = src.ComplexGaussian(g)
		}
		return m
	}
	for i := 0; i < n; i++ {
		Hsd = append(Hsd, mk(2, 2, gsd))
		Hsr = append(Hsr, mk(k, 2, gsr))
		Hrd = append(Hrd, mk(2, k, grd))
	}
	return
}

func TestDesiredMIMOImprovesDet(t *testing.T) {
	src := rng.New(3)
	Hsd, Hsr, Hrd := mimoChannels(src, 8, 2, 1e-8, 1e-6, 1e-7)
	ampDB := 55.0
	FA := DesiredMIMO(Hsd, Hsr, Hrd, ampDB, src)
	amp := dsp.AmplitudeFromDB(ampDB)
	for i := range Hsd {
		opt := cmplx.Abs(Hsd[i].Add(Hrd[i].Mul(FA[i]).Mul(Hsr[i])).Det())
		// Must beat the no-relay determinant.
		direct := cmplx.Abs(Hsd[i].Det())
		if opt < direct {
			t.Errorf("subcarrier %d: optimized det %v below direct %v", i, opt, direct)
		}
		// Must beat (or match) naive identity forwarding at equal power.
		naiveF := linalg.Identity(2).Scale(amp)
		naive := cmplx.Abs(Hsd[i].Add(Hrd[i].Mul(naiveF).Mul(Hsr[i])).Det())
		if opt < naive-1e-12 {
			t.Errorf("subcarrier %d: optimized det %v below naive %v", i, opt, naive)
		}
	}
}

func TestDesiredMIMOFilterIsScaledUnitary(t *testing.T) {
	src := rng.New(4)
	Hsd, Hsr, Hrd := mimoChannels(src, 3, 2, 1e-8, 1e-6, 1e-7)
	ampDB := 40.0
	FA := DesiredMIMO(Hsd, Hsr, Hrd, ampDB, src)
	amp := dsp.AmplitudeFromDB(ampDB)
	for _, fa := range FA {
		// FA/amp must be unitary: (FA)(FA)ᴴ = amp²·I.
		prod := fa.Mul(fa.Adjoint())
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				want := complex(0, 0)
				if i == j {
					want = complex(amp*amp, 0)
				}
				if cmplx.Abs(prod.At(i, j)-want) > 1e-6*amp*amp {
					t.Fatalf("FA not a scaled rotation: %v", prod)
				}
			}
		}
	}
}

func TestMIMORankRestoration(t *testing.T) {
	// A pinhole direct channel (rank 1) plus a full-rank relay path must
	// yield an effective channel with two usable streams.
	src := rng.New(5)
	pin := channel.NewPinhole(src, 2, 2, 1, 0.5, 1e-8)
	Hsd := []*linalg.Matrix{pin.FrequencyResponse(5, 64)}
	rich1 := channel.NewRichScattering(src, 2, 2, 1, 0.5, 1e-6)
	rich2 := channel.NewRichScattering(src, 2, 2, 1, 0.5, 1e-7)
	Hsr := []*linalg.Matrix{rich1.FrequencyResponse(5, 64)}
	Hrd := []*linalg.Matrix{rich2.FrequencyResponse(5, 64)}

	if got := Hsd[0].EffectiveRank(25); got != 1 {
		t.Fatalf("pinhole direct rank = %d, want 1", got)
	}
	FA := DesiredMIMO(Hsd, Hsr, Hrd, 55, src)
	heff := EffectiveMIMO(Hsd, Hsr, Hrd, FA)
	if got := heff[0].EffectiveRank(25); got != 2 {
		sv := heff[0].SingularValues()
		t.Errorf("effective rank = %d (sv %v), want 2", got, sv)
	}
}

func TestSynthesizeRecoversSmoothResponse(t *testing.T) {
	// A desired response that is a pure rotation with mild frequency slope
	// (the typical CNF target) must be realizable to within a few percent.
	carriers := make([]int, 0, 52)
	for k := -26; k <= 26; k++ {
		if k != 0 {
			carriers = append(carriers, k)
		}
	}
	desired := make([]complex128, len(carriers))
	for i, k := range carriers {
		theta := 2.1 + 0.01*float64(k) // slowly varying phase
		desired[i] = cmplx.Rect(1.0, theta)
	}
	impl := Synthesize(desired, carriers, 64, 20e6)
	if impl.FitErrorDB > -20 {
		t.Errorf("fit error %v dB, want <= -20", impl.FitErrorDB)
	}
	got := impl.ApplyImplementation(carriers, 64, 20e6)
	for i := range desired {
		if cmplx.Abs(got[i]-desired[i]) > 0.15 {
			t.Fatalf("carrier %d: synthesized %v vs desired %v", carriers[i], got[i], desired[i])
		}
	}
}

func TestSynthesizeAnalogGainsNonNegative(t *testing.T) {
	src := rng.New(6)
	carriers := []int{-20, -10, -1, 1, 10, 20}
	desired := make([]complex128, len(carriers))
	for i := range desired {
		desired[i] = src.UniformPhase()
	}
	impl := Synthesize(desired, carriers, 64, 20e6)
	for k, g := range impl.AnalogGains {
		if g < 0 {
			t.Errorf("analog gain %d is negative: %v", k, g)
		}
	}
}

func TestSynthesizeLatencyBudget(t *testing.T) {
	// Digital 4 taps at 80 Msps = 37.5 ns span + 3 ns analog: under the
	// 50 ns pre-filter budget plus margin, and with converters (~50 ns)
	// the total stays under 100 ns — the Sec 3.2 requirement.
	impl := &FilterImpl{DigitalTaps: make([]complex128, PreFilterTaps), AnalogGains: make([]float64, AnalogTaps)}
	lat := impl.LatencyS()
	if lat > 50e-9 {
		t.Errorf("filter latency %v exceeds 50 ns budget", lat)
	}
	if total := lat + ConverterDelayS; total > 100e-9 {
		t.Errorf("total processing latency %v exceeds 100 ns", total)
	}
}

func TestAnalogRotatorCoversFullCircle(t *testing.T) {
	// Fig 10: with four 100 ps lines the analog filter must realize any
	// phase at band center with near-unit magnitude.
	for _, theta := range []float64{0, 0.7, 1.6, 2.9, -2.2, -0.9} {
		desired := []complex128{cmplx.Rect(1, theta)}
		impl := Synthesize(desired, []int{1}, 64, 20e6)
		got := impl.Response(20e6 / 64)
		if cmplx.Abs(got-desired[0]) > 0.02 {
			t.Errorf("theta %v: synthesized %v", theta, got)
		}
	}
}

func TestSynthesizedFilterStillConstructive(t *testing.T) {
	// End-to-end: ideal CNF vs its synthesized implementation over a
	// realistic frequency-selective set of channels — the SNR loss from
	// implementation constraints should be modest (< 3 dB).
	src := rng.New(7)
	carriers := make([]int, 0, 52)
	for k := -26; k <= 26; k++ {
		if k != 0 {
			carriers = append(carriers, k)
		}
	}
	mkChan := func(gain float64, taps int) []complex128 {
		c := channel.NewRayleigh(src, taps, 0.5, gain)
		return c.ResponseVector(carriers, 64)
	}
	hsd := mkChan(1e-9, 3)
	hsr := mkChan(1e-6, 3)
	hrd := mkChan(1e-7, 3)
	ampDB := 55.0
	ideal := DesiredSISO(hsd, hsr, hrd, ampDB)
	impl := Synthesize(ideal, carriers, 64, 20e6)
	got := impl.ApplyImplementation(carriers, 64, 20e6)

	b := LinkBudget{TxPowerMW: 100, NoiseFloorMW: 1e-9, RelayNoiseMW: 1e-9}
	idealSNR := MeanSNRdB(DestSNRdB(hsd, hsr, hrd, ideal, b))
	implSNR := MeanSNRdB(DestSNRdB(hsd, hsr, hrd, got, b))
	direct := MeanSNRdB(DestSNRdB(hsd, hsr, hrd, make([]complex128, len(hsd)), b))
	if idealSNR-implSNR > 3 {
		t.Errorf("implementation loses %.2f dB vs ideal (ideal %.1f, impl %.1f)",
			idealSNR-implSNR, idealSNR, implSNR)
	}
	if implSNR < direct+3 {
		t.Errorf("synthesized filter not constructive: impl %.1f dB vs direct %.1f dB",
			implSNR, direct)
	}
}

// TestDesiredMIMOAllocs guards the allocation-free ascent: on the
// sweep-shaped warm chain each carrier may allocate its workspace, its
// random restarts and its output, but nothing that grows with the number
// of ascent iterations.
func TestDesiredMIMOAllocs(t *testing.T) {
	Hsd, Hsr, Hrd := warmChain(31)
	allocs := testing.AllocsPerRun(3, func() {
		DesiredMIMO(Hsd, Hsr, Hrd, 60, rng.New(32))
	})
	if per := allocs / float64(len(Hsd)); per > 64 {
		t.Errorf("DesiredMIMO allocates %.0f objects per carrier, want ≤ 64", per)
	}
}

// TestSynthesizeAllocs guards the synthesis workspace: a call allocates
// its basis tables, its fit buffers and the returned filter once (25
// objects for one pair, 39 for a 2×2 MIMO filter whose four pairs share
// one workspace), and nothing in the alternating-least-squares loop.
func TestSynthesizeAllocs(t *testing.T) {
	p := ofdm.Default20MHz()
	carriers := warmCarriers()
	Hsd, Hsr, Hrd := warmChain(31)
	FA := DesiredMIMO(Hsd, Hsr, Hrd, 60, rng.New(32))
	desired := make([]complex128, len(FA))
	for i, fa := range FA {
		desired[i] = fa.At(0, 1)
	}
	if n := testing.AllocsPerRun(3, func() {
		Synthesize(desired, carriers, p.NFFT, p.SampleRate)
	}); n > 25 {
		t.Errorf("Synthesize allocates %.0f objects, want ≤ 25", n)
	}
	if n := testing.AllocsPerRun(3, func() {
		SynthesizeMIMO(FA, carriers, p.NFFT, p.SampleRate)
	}); n > 39 {
		t.Errorf("SynthesizeMIMO allocates %.0f objects, want ≤ 39", n)
	}
}

// TestSynthesizeNoCarriers: with nothing to fit, Synthesize returns its
// initial filter, a unit-impulse pre-filter with the analog lines off, as
// SynthesizeMIMO returns an empty filter for empty input.
func TestSynthesizeNoCarriers(t *testing.T) {
	for _, nTaps := range []int{PreFilterTaps, 1} {
		impl := SynthesizeWithBudget(nil, nil, 64, 20e6, nTaps)
		if len(impl.DigitalTaps) != nTaps || impl.DigitalTaps[0] != 1 || impl.TapEnergy() != 1 {
			t.Errorf("%d taps: digital taps %v, want a unit impulse", nTaps, impl.DigitalTaps)
		}
		if len(impl.AnalogGains) != AnalogTaps {
			t.Errorf("%d taps: %d analog gains, want %d", nTaps, len(impl.AnalogGains), AnalogTaps)
		}
		for k, g := range impl.AnalogGains {
			if g != 0 {
				t.Errorf("%d taps: analog gain %d = %v, want 0", nTaps, k, g)
			}
		}
		if impl.FitErrorDB != 0 {
			t.Errorf("%d taps: FitErrorDB %v, want 0", nTaps, impl.FitErrorDB)
		}
	}
}

// BenchmarkDesiredMIMOPerSubcarrier times one cold carrier (identity and
// four random starts). Each iteration, here and in the warm chain, draws
// its restarts from a fresh source, so every iteration solves the same
// problem whatever b.N is.
func BenchmarkDesiredMIMOPerSubcarrier(b *testing.B) {
	Hsd, Hsr, Hrd := mimoChannels(rng.New(8), 1, 2, 1e-8, 1e-6, 1e-7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DesiredMIMO(Hsd, Hsr, Hrd, 55, rng.New(9))
	}
}

// BenchmarkDesiredMIMOWarmChain times one Fig 12 client evaluation's
// filter design: 12 stride-4 carriers, 2×2, warm-started, with restarts.
func BenchmarkDesiredMIMOWarmChain(b *testing.B) {
	Hsd, Hsr, Hrd := warmChain(31)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DesiredMIMO(Hsd, Hsr, Hrd, 60, rng.New(32))
	}
}

func BenchmarkSynthesize52Carriers(b *testing.B) {
	src := rng.New(9)
	carriers := make([]int, 0, 52)
	for k := -26; k <= 26; k++ {
		if k != 0 {
			carriers = append(carriers, k)
		}
	}
	desired := make([]complex128, len(carriers))
	for i := range desired {
		desired[i] = src.UniformPhase()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(desired, carriers, 64, 20e6)
	}
}
