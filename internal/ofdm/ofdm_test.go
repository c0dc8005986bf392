package ofdm

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/rng"
)

func defaultSetup() (*Params, *Modulator, *Demodulator, *Preamble) {
	p := Default20MHz()
	return p, NewModulator(p), NewDemodulator(p), NewPreamble(p)
}

func randQPSK(n int, seed int64) []complex128 {
	s := rng.New(seed)
	v := make([]complex128, n)
	vals := []complex128{
		complex(1/math.Sqrt2, 1/math.Sqrt2),
		complex(1/math.Sqrt2, -1/math.Sqrt2),
		complex(-1/math.Sqrt2, 1/math.Sqrt2),
		complex(-1/math.Sqrt2, -1/math.Sqrt2),
	}
	for i := range v {
		v[i] = vals[s.Intn(4)]
	}
	return v
}

func TestParams(t *testing.T) {
	p := Default20MHz()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumData() != 52 {
		t.Errorf("data subcarriers = %d, want 52", p.NumData())
	}
	if p.NumUsed() != 56 {
		t.Errorf("used subcarriers = %d, want 56", p.NumUsed())
	}
	if p.SymbolLen() != 72 {
		t.Errorf("symbol length = %d, want 72", p.SymbolLen())
	}
	if got := p.CPDuration(); math.Abs(got-400e-9) > 1e-15 {
		t.Errorf("CP duration = %v, want 400ns", got)
	}
	if got := p.SymbolDuration(); math.Abs(got-3.6e-6) > 1e-15 {
		t.Errorf("symbol duration = %v, want 3.6us", got)
	}
	if got := p.SubcarrierSpacing(); math.Abs(got-312500) > 1e-9 {
		t.Errorf("subcarrier spacing = %v, want 312.5kHz", got)
	}
	// CP distance budget ~400 feet (paper Sec 3.1).
	if ft := p.GuardFeet(); ft < 380 || ft > 420 {
		t.Errorf("guard distance %v ft, want ~400", ft)
	}
}

func TestParamsValidateCatchesErrors(t *testing.T) {
	p := Default20MHz()
	p.NFFT = 60
	if p.Validate() == nil {
		t.Error("non-power-of-two NFFT not caught")
	}
	p = Default20MHz()
	p.DataCarriers[0] = p.DataCarriers[1] // duplicate
	if p.Validate() == nil {
		t.Error("duplicate subcarrier not caught")
	}
	p = Default20MHz()
	p.CPLen = 64
	if p.Validate() == nil {
		t.Error("CP >= NFFT not caught")
	}
}

func TestSymbolRoundTrip(t *testing.T) {
	p, mod, dem, _ := defaultSetup()
	data := randQPSK(p.NumData(), 1)
	td, err := mod.Symbol(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(td) != p.SymbolLen() {
		t.Fatalf("symbol length %d", len(td))
	}
	got, pilots, err := dem.Symbol(td)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if cmplx.Abs(got[i]-data[i]) > 1e-9 {
			t.Fatalf("data subcarrier %d: %v vs %v", i, got[i], data[i])
		}
	}
	for i := range pilots {
		if cmplx.Abs(pilots[i]-p.PilotValues[i]) > 1e-9 {
			t.Fatalf("pilot %d corrupted", i)
		}
	}
}

func TestCyclicPrefixIsCyclic(t *testing.T) {
	p, mod, _, _ := defaultSetup()
	td, _ := mod.Symbol(randQPSK(p.NumData(), 2))
	for i := 0; i < p.CPLen; i++ {
		if cmplx.Abs(td[i]-td[p.NFFT+i]) > 1e-12 {
			t.Fatalf("CP sample %d does not match symbol tail", i)
		}
	}
}

func TestCPAbsorbsMultipath(t *testing.T) {
	// Key OFDM property the paper leans on (Fig 4): a delayed copy within
	// the CP only multiplies each subcarrier by a phase — no ISI.
	p, mod, dem, _ := defaultSetup()
	data1 := randQPSK(p.NumData(), 3)
	data2 := randQPSK(p.NumData(), 4)
	burst, err := mod.Burst(append(append([]complex128{}, data1...), data2...))
	if err != nil {
		t.Fatal(err)
	}
	// Two-path channel: direct + copy delayed by 5 samples (< CP=8).
	delayed := dsp.Delay(burst, 5)
	rx := dsp.Add(burst, dsp.Scale(delayed, 0.5))

	// Demodulate the SECOND symbol; with ISI it would be corrupted by the
	// first symbol's tail.
	got, _, err := dem.Symbol(rx[p.SymbolLen():])
	if err != nil {
		t.Fatal(err)
	}
	// Expected per-subcarrier channel: 1 + 0.5·exp(-j2πk·5/64).
	for i, k := range p.DataCarriers {
		h := 1 + 0.5*cmplx.Exp(complex(0, -2*math.Pi*float64(k)*5/float64(p.NFFT)))
		want := data2[i] * h
		if cmplx.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("subcarrier %d: got %v want %v — CP failed to absorb in-CP multipath", k, got[i], want)
		}
	}
}

func TestDelayBeyondCPCausesISI(t *testing.T) {
	// Complement: a delay beyond the CP must corrupt the flat-channel model.
	p, mod, dem, _ := defaultSetup()
	data1 := randQPSK(p.NumData(), 5)
	data2 := randQPSK(p.NumData(), 6)
	burst, _ := mod.Burst(append(append([]complex128{}, data1...), data2...))
	delayed := dsp.Delay(burst, 20) // > CP of 8
	rx := dsp.Add(burst, dsp.Scale(delayed, 0.7))
	got, _, _ := dem.Symbol(rx[p.SymbolLen():])
	var worst float64
	for i, k := range p.DataCarriers {
		h := 1 + 0.7*cmplx.Exp(complex(0, -2*math.Pi*float64(k)*20/float64(p.NFFT)))
		want := data2[i] * h
		if e := cmplx.Abs(got[i] - want); e > worst {
			worst = e
		}
	}
	if worst < 0.05 {
		t.Errorf("expected visible ISI for delay > CP, worst deviation %v", worst)
	}
}

func TestPreambleStructure(t *testing.T) {
	p, _, _, pr := defaultSetup()
	if len(pr.STF) != 160 {
		t.Errorf("STF length %d, want 160", len(pr.STF))
	}
	if len(pr.LTF) != 160 {
		t.Errorf("LTF length %d, want 160", len(pr.LTF))
	}
	// STF periodicity: period 16.
	for i := 0; i+16 < len(pr.STF); i++ {
		if cmplx.Abs(pr.STF[i]-pr.STF[i+16]) > 1e-12 {
			t.Fatal("STF is not 16-periodic")
		}
	}
	// LTF symbols identical.
	o1, o2 := pr.LTFSymbolOffsets()
	rel1 := o1 - len(pr.STF)
	rel2 := o2 - len(pr.STF)
	for i := 0; i < p.NFFT; i++ {
		if cmplx.Abs(pr.LTF[rel1+i]-pr.LTF[rel2+i]) > 1e-12 {
			t.Fatal("LTF symbols differ")
		}
	}
	// LTF guard is the tail of the long symbol (cyclic).
	for i := 0; i < p.NFFT/2; i++ {
		if cmplx.Abs(pr.LTF[i]-pr.LTF[p.NFFT/2+p.NFFT/2+i]) > 1e-12 {
			t.Fatal("LTF guard is not cyclic")
		}
	}
}

func TestDetectPacket(t *testing.T) {
	_, _, _, pr := defaultSetup()
	noise := rng.New(7)
	pad := 333
	rx := noise.NoiseVector(pad, 1e-6)
	rx = append(rx, pr.Samples()...)
	rx = append(rx, noise.NoiseVector(200, 1e-6)...)
	idx, ok := DetectPacket(rx, pr)
	if !ok {
		t.Fatal("packet not detected")
	}
	if idx != pad {
		t.Errorf("detected at %d, want %d", idx, pad)
	}
}

func TestDetectPacketNoiseOnly(t *testing.T) {
	_, _, _, pr := defaultSetup()
	noise := rng.New(8)
	rx := noise.NoiseVector(1000, 1)
	if _, ok := DetectPacket(rx, pr); ok {
		t.Error("false detection on pure noise")
	}
}

func TestDetectPacketWithNoiseAndCFO(t *testing.T) {
	_, _, _, pr := defaultSetup()
	noise := rng.New(9)
	pad := 217
	sig := pr.Samples()
	sig, _ = dsp.ApplyCFO(sig, 80e3, 20e6, 0.4)
	sigPow := dsp.Power(sig)
	rx := noise.NoiseVector(pad, sigPow/100) // 20 dB SNR
	rx = append(rx, dsp.Add(sig, noise.NoiseVector(len(sig), sigPow/100))...)
	rx = append(rx, noise.NoiseVector(100, sigPow/100)...)
	idx, ok := DetectPacket(rx, pr)
	if !ok {
		t.Fatal("packet not detected at 20dB SNR with CFO")
	}
	if d := idx - pad; d < -2 || d > 2 {
		t.Errorf("detected at %d, want %d±2", idx, pad)
	}
}

func TestCFOEstimation(t *testing.T) {
	p, _, _, pr := defaultSetup()
	for _, cfo := range []float64{-200e3, -31e3, 0, 12e3, 137e3, 300e3} {
		tx := pr.Samples()
		rx, _ := dsp.ApplyCFO(tx, cfo, p.SampleRate, 0)
		got := EstimateCFO(rx, pr)
		if math.Abs(got-cfo) > 50 {
			t.Errorf("CFO %v: estimated %v (err %v Hz)", cfo, got, got-cfo)
		}
	}
}

func TestCFOEstimationUnderNoise(t *testing.T) {
	p, _, _, pr := defaultSetup()
	noise := rng.New(10)
	cfo := 93e3
	tx := pr.Samples()
	rx, _ := dsp.ApplyCFO(tx, cfo, p.SampleRate, 0)
	rx = dsp.Add(rx, noise.NoiseVector(len(rx), dsp.Power(tx)/1000)) // 30 dB
	got := EstimateCFO(rx, pr)
	if math.Abs(got-cfo) > 500 {
		t.Errorf("CFO estimate %v, want %v", got, cfo)
	}
}

func TestCorrectCFOInvertsApply(t *testing.T) {
	p, _, _, pr := defaultSetup()
	tx := pr.Samples()
	rx, _ := dsp.ApplyCFO(tx, 150e3, p.SampleRate, 0)
	fixed := CorrectCFO(rx, 150e3, p.SampleRate)
	for i := range tx {
		if cmplx.Abs(fixed[i]-tx[i]) > 1e-9 {
			t.Fatalf("CFO correction failed at %d", i)
		}
	}
}

func TestChannelEstimationFlat(t *testing.T) {
	p, _, _, pr := defaultSetup()
	g := complex(0.6, -0.3)
	rx := dsp.ScaleC(pr.Samples(), g)
	h, _ := EstimateChannel(rx, pr)
	for _, k := range p.UsedCarriers() {
		if k < -26 || k > 26 {
			continue // legacy LTF spans ±26 only
		}
		if cmplx.Abs(ChannelAt(h, k, p.NFFT)-g) > 1e-9 {
			t.Fatalf("flat channel estimate wrong at subcarrier %d: %v", k, ChannelAt(h, k, p.NFFT))
		}
	}
}

func TestChannelEstimationNoiseVariance(t *testing.T) {
	p, _, _, pr := defaultSetup()
	clean := dsp.ScaleC(pr.Samples(), complex(0.6, -0.3))
	if _, nv := EstimateChannel(clean, pr); nv != 1e-12 {
		t.Errorf("noiseless noise variance %g, want the 1e-12 floor", nv)
	}
	// Unnormalized FFT: white noise of variance s2 per sample has variance
	// NFFT·s2 per bin.
	const s2 = 1e-3
	src := rng.New(7)
	noisy := dsp.Add(clean, src.NoiseVector(len(clean), s2))
	h, nv := EstimateChannel(noisy, pr)
	if h == nil {
		t.Fatal("no estimate from a full preamble")
	}
	if want := float64(p.NFFT) * s2; math.Abs(nv-want) > 0.3*want {
		t.Errorf("noise variance %g, want %g ± 30%%", nv, want)
	}
	if h, nv := EstimateChannel(noisy[:len(noisy)-1], pr); h != nil || nv != 0 {
		t.Errorf("truncated preamble gave (%v, %g), want (nil, 0)", h != nil, nv)
	}
}

func TestChannelEstimationMultipath(t *testing.T) {
	p, _, _, pr := defaultSetup()
	taps := []complex128{0.8, 0, 0.4i, 0, 0, -0.2}
	rx := dsp.FilterSame(pr.Samples(), taps)
	h, _ := EstimateChannel(rx, pr)
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		var want complex128
		for d, tap := range taps {
			want += tap * cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(d)/float64(p.NFFT)))
		}
		if cmplx.Abs(ChannelAt(h, k, p.NFFT)-want) > 1e-9 {
			t.Fatalf("multipath estimate wrong at %d: %v vs %v", k, ChannelAt(h, k, p.NFFT), want)
		}
	}
}

func TestEqualizerRecoversData(t *testing.T) {
	p, mod, dem, pr := defaultSetup()
	data := randQPSK(p.NumData(), 11)
	sym, _ := mod.Symbol(data)
	tx := append(pr.Samples(), sym...)
	taps := []complex128{0.9, 0.3i, -0.1}
	rx := dsp.FilterSame(tx, taps)

	h, _ := EstimateChannel(rx, pr)
	// The legacy LTF only sounds ±26; extend the estimate to ±28 by copying
	// the edge (adequate for smooth channels; wifi layer restricts to ±26).
	for _, k := range []int{27, 28} {
		h[binIndex(k, p.NFFT)] = h[binIndex(26, p.NFFT)]
		h[binIndex(-k, p.NFFT)] = h[binIndex(-26, p.NFFT)]
	}
	eq := NewEqualizer(p, h)
	raw, pilots, err := dem.Symbol(rx[pr.Len():])
	if err != nil {
		t.Fatal(err)
	}
	got := eq.Symbol(raw, pilots)
	for i, k := range p.DataCarriers {
		if k > 26 || k < -26 {
			continue
		}
		if cmplx.Abs(got[i]-data[i]) > 1e-6 {
			t.Fatalf("equalized subcarrier %d: %v vs %v", k, got[i], data[i])
		}
	}
}

func TestEqualizerTracksResidualPhase(t *testing.T) {
	// A small residual CFO shows up as a common phase rotation; pilots must
	// remove it.
	p, mod, dem, pr := defaultSetup()
	data := randQPSK(p.NumData(), 12)
	sym, _ := mod.Symbol(data)
	tx := append(pr.Samples(), sym...)
	rot := cmplx.Exp(complex(0, 0.22)) // common phase error on the data symbol
	rx := append(dsp.Clone(tx[:pr.Len()]), dsp.ScaleC(tx[pr.Len():], rot)...)

	h, _ := EstimateChannel(rx, pr)
	eq := NewEqualizer(p, h)
	raw, pilots, _ := dem.Symbol(rx[pr.Len():])
	got := eq.Symbol(raw, pilots)
	for i, k := range p.DataCarriers {
		if k > 26 || k < -26 {
			continue
		}
		if cmplx.Abs(got[i]-data[i]) > 1e-6 {
			t.Fatalf("CPE not removed at subcarrier %d: %v vs %v", k, got[i], data[i])
		}
	}
}

func TestBurstLength(t *testing.T) {
	p, mod, _, _ := defaultSetup()
	data := randQPSK(p.NumData()*5, 13)
	b, err := mod.Burst(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 5*p.SymbolLen() {
		t.Errorf("burst length %d, want %d", len(b), 5*p.SymbolLen())
	}
	if _, err := mod.Burst(data[:10]); err == nil {
		t.Error("expected error for partial symbol")
	}
}
