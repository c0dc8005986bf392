package impair

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/rng"
)

// The severity ladder's cancellation floors must be strictly ordered —
// this is what makes the testbed's degradation sweeps monotone by
// construction, which the acceptance test in internal/testbed pins.
func TestSeverityLadderFloorsMonotone(t *testing.T) {
	ladder := SeverityLadder()
	prev := math.Inf(1)
	for _, p := range ladder {
		floor := p.CancellationFloorDB()
		if p.Name == "ideal" {
			if !math.IsInf(floor, 1) {
				t.Fatalf("ideal profile has finite floor %v", floor)
			}
			continue
		}
		if !(floor < prev) {
			t.Errorf("floor not strictly decreasing at %q: %.2f !< %.2f", p.Name, floor, prev)
		}
		if floor < 15 || floor > 100 {
			t.Errorf("%q floor %.2f dB outside plausible range", p.Name, floor)
		}
		prev = floor
	}
	// Aging must tighten (rho decrease) down the ladder too.
	prevRho := 1.0
	for _, p := range ladder[1:] {
		if rho := p.AgingRho(); rho >= prevRho {
			t.Errorf("aging rho not decreasing at %q: %v >= %v", p.Name, rho, prevRho)
		} else {
			prevRho = rho
		}
	}
}

func TestEffectiveCancellationCaps(t *testing.T) {
	p, _ := ByName("severe")
	floor := p.CancellationFloorDB()
	if got := p.EffectiveCancellationDB(110); got != floor {
		t.Errorf("110 dB budget should cap at floor %.2f, got %.2f", floor, got)
	}
	if got := p.EffectiveCancellationDB(floor - 10); got != floor-10 {
		t.Errorf("budget below floor must pass through: got %.2f", got)
	}
	var ideal Profile
	if got := ideal.EffectiveCancellationDB(110); got != 110 {
		t.Errorf("ideal profile must not cap: got %.2f", got)
	}
}

// rms is the per-complex-sample RMS amplitude of x, the refRMS a Stream
// levelled to x takes.
func rms(x []complex128) float64 { return math.Sqrt(dsp.Power(x)) }

// Waveform impairments must be deterministic given the ItemSeed-derived
// source — the property that keeps impaired sweeps bit-identical across
// worker counts.
func TestWaveformDeterminism(t *testing.T) {
	p, _ := ByName("severe")
	x := rng.New(42).NoiseVector(512, 1)
	run := func(item int) []complex128 {
		return NewRxStream(&p, Source(7, item), 20e6, rms(x)).Process(x)
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between identically-seeded runs", i)
		}
	}
	c := run(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different item seeds produced identical impairments")
	}
	// The output must actually deviate from the clean input.
	if evm := dsp.Power(dsp.Sub(a, x)) / dsp.Power(x); evm < 1e-5 {
		t.Errorf("severe profile produced EVM² %v — impairments not applied?", evm)
	}
	// Only phase noise draws from src, so every other impairment leaves the
	// stream where it was: the next variate matches an untouched source.
	noPN := p
	noPN.PhaseNoiseRadRMS = 0
	used, fresh := Source(7, 3), Source(7, 3)
	NewRxStream(&noPN, used, 20e6, rms(x)).Process(x)
	if used.Float64() != fresh.Float64() {
		t.Error("a profile without phase noise consumed impairment randomness")
	}
}

func TestApplyCFORotates(t *testing.T) {
	const fs = 20e6
	const cfo = 1000.0
	n := 2000
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	y := NewRxStream(&Profile{CFOHz: cfo}, nil, fs, 1).Process(x)
	// The first sample is unrotated and the phase advance per sample is
	// 2π·cfo/fs.
	if y[0] != 1 {
		t.Errorf("first sample %v, want 1", y[0])
	}
	want := 2 * math.Pi * cfo / fs
	for _, i := range []int{1, n - 1} {
		if got := cmplx.Phase(y[i] * cmplx.Conj(y[i-1])); math.Abs(got-want) > 1e-12 {
			t.Errorf("sample %d: phase step %v, want %v", i, got, want)
		}
	}
}

func TestIQImbalanceImagePower(t *testing.T) {
	// For a pure tone, the image-to-signal ratio must match the standard
	// |beta/alpha|² model.
	const gainDB, phaseDeg = 0.6, 3.0
	g := math.Pow(10, gainDB/20)
	phi := phaseDeg * math.Pi / 180
	alpha := complex((1+g*math.Cos(phi))/2, g*math.Sin(phi)/2)
	beta := complex((1-g*math.Cos(phi))/2, g*math.Sin(phi)/2)
	wantIRR := dsp.DB(absSq(beta) / absSq(alpha))

	n := 4096
	x := make([]complex128, n)
	for i := range x {
		ph := 2 * math.Pi * 5 * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ph))
	}
	p := Profile{IQGainMismatchDB: gainDB, IQPhaseErrorDeg: phaseDeg}
	y := NewRxStream(&p, nil, 20e6, rms(x)).Process(x)
	// Correlate against the tone and its image.
	var sig, img complex128
	for i := range y {
		ph := 2 * math.Pi * 5 * float64(i) / float64(n)
		sig += y[i] * cmplx.Exp(complex(0, -ph))
		img += y[i] * cmplx.Exp(complex(0, ph))
	}
	gotIRR := dsp.DB(absSq(img) / absSq(sig))
	if math.Abs(gotIRR-wantIRR) > 0.1 {
		t.Errorf("image rejection %.2f dB, want %.2f dB", gotIRR, wantIRR)
	}
}

// adcSQNR is the SQNR in dB of x through an ADC-only receive stream
// levelled to x.
func adcSQNR(x []complex128, bits int, backoffDB float64) float64 {
	p := Profile{ADCBits: bits, ADCClipBackoffDB: backoffDB}
	y := NewRxStream(&p, nil, 20e6, rms(x)).Process(x)
	return dsp.DB(dsp.Power(x) / dsp.Power(dsp.Sub(y, x)))
}

func TestADCQuantizerSQNR(t *testing.T) {
	src := rng.New(1)
	x := src.NoiseVector(1<<14, 1)
	// At 16 dB back-off the Gaussian clip tail is negligible, so the SQNR
	// must match the loaded-quantizer formula 6.02·bits + 4.77 − backoff.
	for _, bits := range []int{6, 8, 10, 12} {
		snr := adcSQNR(x, bits, 16)
		want := 6.02*float64(bits) + 4.77 - 16
		if math.Abs(snr-want) > 2 {
			t.Errorf("%d bits: SQNR %.1f dB, want ≈%.1f", bits, snr, want)
		}
	}
	// More bits must always quantize less noisily.
	prev := -math.Inf(1)
	for _, bits := range []int{4, 6, 8, 10} {
		snr := adcSQNR(x, bits, 16)
		if snr <= prev {
			t.Errorf("SQNR not increasing with bits at %d: %.1f <= %.1f", bits, snr, prev)
		}
		prev = snr
	}
	// At aggressive loading the clip tail dominates and the budget model's
	// quant+clip closed form must track the waveform within 3 dB.
	p := Profile{ADCBits: 8, ADCClipBackoffDB: 8}
	meas := adcSQNR(x, 8, 8)
	if model := p.CancellationFloorDB(); math.Abs(meas-model) > 3 {
		t.Errorf("clip-dominated floor: measured %.1f dB, model %.1f dB", meas, model)
	}
}

func TestPACompressesPeaks(t *testing.T) {
	src := rng.New(2)
	x := src.NoiseVector(4096, 1)
	pa := func(backoffDB float64) []complex128 {
		p := Profile{PAInputBackoffDB: backoffDB, PASmoothness: 2}
		return NewTxStream(&p, rms(x)).Process(x)
	}
	y := pa(3)
	if dsp.MaxAbs(y) >= dsp.MaxAbs(x) {
		t.Error("PA did not compress the peak")
	}
	// Small signals pass almost linearly.
	for i, v := range x {
		if cmplx.Abs(v) < 0.1 {
			if r := cmplx.Abs(y[i]) / cmplx.Abs(v); r < 0.98 || r > 1.0+1e-12 {
				t.Fatalf("small-signal gain %v out of range", r)
			}
			break
		}
	}
	// Deep back-off must be transparent to 1e-3.
	lin := pa(40)
	if evm := dsp.Power(dsp.Sub(lin, x)) / dsp.Power(x); evm > 1e-3 {
		t.Errorf("40 dB back-off EVM² %v too high", evm)
	}
}

// The budget model's PA term, floor ≈ 1.1·s·backoff + 12 dB, is a fit to
// the waveform: after a least-squares linear canceller absorbs the gain
// compression, the uncorrelated Rapp distortion left behind is the floor.
// Across s ∈ {2, 3} and back-off ∈ {3, 6, 9, 12} dB the fit misses the
// measured floor by at most paFitErrorDB: it overstates the floor by
// 6.1 dB at s = 3, 6 dB and understates it by 3.8 dB at s = 2, 12 dB.
func TestPAFloorFit(t *testing.T) {
	const paFitErrorDB = 6.2
	x := rng.New(5).NoiseVector(1<<14, 1)
	worst := 0.0
	for _, s := range []float64{2, 3} {
		for _, backoff := range []float64{3, 6, 9, 12} {
			p := Profile{PAInputBackoffDB: backoff, PASmoothness: s}
			y := NewTxStream(&p, rms(x)).Process(x)
			// One complex tap is the least-squares linear canceller of a
			// memoryless amplifier: g = <y, x> / <x, x>.
			g := dsp.Dot(y, x) / complex(dsp.Energy(x), 0)
			meas := dsp.DB(dsp.Power(x) / dsp.Power(dsp.Sub(y, dsp.ScaleC(x, g))))
			model := p.CancellationFloorDB()
			t.Logf("s=%g backoff=%g dB: measured %.2f dB, model %.2f dB", s, backoff, meas, model)
			if d := math.Abs(meas - model); d > worst {
				worst = d
			}
		}
	}
	if worst > paFitErrorDB {
		t.Errorf("PA floor fit misses the waveform by %.1f dB, beyond %.1f dB", worst, paFitErrorDB)
	}
}

func TestAgeCSICorrelation(t *testing.T) {
	src := rng.New(3)
	n := 20000
	h := src.NoiseVector(n, 1)
	const rho = 0.8
	aged := AgeCSI(src, h, rho)
	var dot complex128
	var pw float64
	for i := range h {
		dot += aged[i] * cmplx.Conj(h[i])
		pw += absSq(h[i])
	}
	got := real(dot) / pw
	if math.Abs(got-rho) > 0.02 {
		t.Errorf("measured correlation %.3f, want %.3f", got, rho)
	}
	// Power must be preserved in expectation.
	var agedPw float64
	for _, v := range aged {
		agedPw += absSq(v)
	}
	if r := agedPw / pw; r < 0.9 || r > 1.1 {
		t.Errorf("aged power ratio %.3f, want ≈1", r)
	}
	// rho >= 1 is the identity.
	if same := AgeCSI(src, h, 1); &same[0] != &h[0] {
		t.Error("rho=1 should return h unchanged")
	}
}

// DrawSounding must consume exactly one variate whatever the outcome, so
// toggling fault injection cannot shift any other draw in the stream.
func TestDrawSoundingStreamStability(t *testing.T) {
	lossy, _ := ByName("lost-sounding")
	var ideal Profile
	a := rng.New(9)
	b := rng.New(9)
	for i := 0; i < 100; i++ {
		lossy.DrawSounding(a)
		ideal.DrawSounding(b)
	}
	if a.Float64() != b.Float64() {
		t.Error("profiles consumed different variate counts")
	}
	// Outcomes are deterministic per seed.
	c, d := rng.New(11), rng.New(11)
	for i := 0; i < 200; i++ {
		if lossy.DrawSounding(c) != lossy.DrawSounding(d) {
			t.Fatal("outcome not deterministic")
		}
	}
	// With the configured probabilities all three outcomes occur.
	seen := map[SoundingOutcome]int{}
	e := rng.New(13)
	for i := 0; i < 500; i++ {
		seen[lossy.DrawSounding(e)]++
	}
	for _, o := range []SoundingOutcome{SoundingOK, SoundingLost, SoundingCorrupt} {
		if seen[o] == 0 {
			t.Errorf("outcome %s never drawn", o)
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("moderate")
	if err != nil || p.Name != "moderate" || p.CFOHz != 8 {
		t.Fatalf("Parse(moderate) = %+v, %v", p, err)
	}
	p, err = Parse("severe,cfo_hz=500,csi_age_ms=80")
	if err != nil || p.CFOHz != 500 || p.CSIAgeMs != 80 || p.ADCBits != 8 {
		t.Fatalf("overlay parse = %+v, %v", p, err)
	}
	if p.Name != "severe,cfo_hz=500,csi_age_ms=80" {
		t.Errorf("custom profile name %q", p.Name)
	}
	if _, err := Parse("nonsense"); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := Parse("mild,bogus_key=1"); err == nil {
		t.Error("unknown key accepted")
	}
	for _, bad := range []string{
		"cfo_hz=inf", "cfo_hz=-Inf", "cfo_hz=nan", "moderate,iq_gain_db=NaN",
		"adc_bits=2.7", "adc_bits=80", "adc_bits=63", "adc_bits=-1",
		"sounding_loss=1.5", "sounding_loss=-1", "sounding_corrupt=1.01",
		"csi_age_ms=-5", "coherence_ms=-1", "phase_noise_rad=-1e-4", "pa_smoothness=-2",
	} {
		if p, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted out-of-range input: %+v", bad, p)
		}
	}
	for _, good := range []string{
		"adc_bits=0", "adc_bits=62", "adc_bits=8.0", "sounding_loss=0",
		"sounding_loss=1", "cfo_hz=-40", "iq_phase_deg=-1", "csi_age_ms=0",
	} {
		if _, err := Parse(good); err != nil {
			t.Errorf("Parse(%q) rejected in-range input: %v", good, err)
		}
	}
	p, err = Parse("")
	if err != nil || !p.IsZero() {
		t.Errorf("empty parse = %+v, %v", p, err)
	}
	for _, n := range Names() {
		if _, ok := ByName(n); !ok {
			t.Errorf("Names() lists %q but ByName misses it", n)
		}
	}
}

func TestSeverityRank(t *testing.T) {
	ladder := SeverityLadder()
	for i, p := range ladder {
		rank, ok := SeverityRank(p.Name)
		if !ok || rank != i {
			t.Errorf("SeverityRank(%q) = %d, %v; want %d, true", p.Name, rank, ok, i)
		}
		if got := SeverityName(i); got != p.Name {
			t.Errorf("SeverityName(%d) = %q, want %q", i, got, p.Name)
		}
	}
	if rank, ok := SeverityRank(" Severe "); !ok || rank != 3 {
		t.Errorf("SeverityRank with case/space = %d, %v; want 3, true", rank, ok)
	}
	for _, n := range []string{"cfo", "stale-csi", "nonsense", ""} {
		if _, ok := SeverityRank(n); ok {
			t.Errorf("SeverityRank(%q) accepted a non-ladder name", n)
		}
	}
	if got := SeverityName(-3); got != "ideal" {
		t.Errorf("SeverityName(-3) = %q, want ideal", got)
	}
	if got := SeverityName(99); got != "harsh" {
		t.Errorf("SeverityName(99) = %q, want harsh", got)
	}
}

func absSq(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}
