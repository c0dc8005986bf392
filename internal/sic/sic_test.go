package sic

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/rng"
)

func TestSIChannelFreqResponse(t *testing.T) {
	// Single path: magnitude is the path gain, phase rotates with delay.
	c := &SIChannel{Paths: []SIPath{{DelayS: 1e-9, GainDB: -20}}}
	h0 := c.FreqResponse(0)
	if math.Abs(cmplx.Abs(h0)-0.1) > 1e-12 {
		t.Errorf("|H(0)| = %v, want 0.1", cmplx.Abs(h0))
	}
	// Response phase difference across 10 MHz equals 2π·10MHz·1ns.
	h1 := c.FreqResponse(10e6)
	dphi := cmplx.Phase(h1 / h0)
	want := -2 * math.Pi * 10e6 * 1e-9
	if math.Abs(dphi-want) > 1e-9 {
		t.Errorf("phase slope %v, want %v", dphi, want)
	}
}

func TestBasebandFIRMatchesFreqResponse(t *testing.T) {
	// The sample-domain FIR must reproduce the channel's in-band frequency
	// response (up to the alignment delay's linear phase).
	src := rng.New(1)
	c := NewTypicalSIChannel(src)
	const fs = 20e6
	const nTaps = 32
	const align = 2
	taps := c.BasebandFIR(fs, nTaps, align)
	for _, k := range []int{-20, -5, 5, 20} {
		f := float64(k) / 64 * fs
		var got complex128
		for d, tap := range taps {
			got += tap * cmplx.Exp(complex(0, -2*math.Pi*f/fs*float64(d)))
		}
		// Compensate the alignment delay.
		got *= cmplx.Exp(complex(0, 2*math.Pi*f/fs*align))
		want := c.FreqResponse(f)
		if cmplx.Abs(got-want) > 0.02*cmplx.Abs(want)+1e-6 {
			t.Errorf("bin %d: FIR response %v, channel %v", k, got, want)
		}
	}
}

func TestAnalogCancellerDeepNulls(t *testing.T) {
	// Sec 3.3/4.3: the paper's 8-tap hardware reaches ~70 dB. Our
	// mechanistic simulation of the same structure (fixed delays, 0.25 dB
	// step attenuators, measurement-driven tuning) reaches a 50+ dB mean
	// with worst cases in the low 40s; the gap is documented in
	// EXPERIMENTS.md. This test pins the achieved band so regressions in
	// the tuner are caught.
	if testing.Short() {
		t.Skip("analog tuning sweep is slow")
	}
	src := rng.New(2)
	vals := make([]float64, 0, 6)
	for i := 0; i < 6; i++ {
		si := NewTypicalSIChannel(src)
		a := NewAnalogCanceller(1.0)
		got := a.Tune(si, 20e6, 16)
		vals = append(vals, got)
	}
	var sum, min float64
	min = math.Inf(1)
	for _, v := range vals {
		sum += v
		if v < min {
			min = v
		}
	}
	mean := sum / float64(len(vals))
	if mean < 50 {
		t.Errorf("mean analog cancellation %.1f dB, want >= 50 (values %v)", mean, vals)
	}
	if min < 40 {
		t.Errorf("worst analog cancellation %.1f dB too low (values %v)", min, vals)
	}
}

func TestAnalogQuantizationMatters(t *testing.T) {
	// With a single-step-quantized (non-refined) canceller the floor is much
	// higher; the refinement loop must be doing real work. We emulate the
	// unrefined state by re-quantizing a fresh NNLS fit and skipping refine:
	// easiest observable — refined result must beat 40 dB, the
	// independent-rounding bound for a −15 dB dominant path.
	src := rng.New(3)
	si := NewTypicalSIChannel(src)
	a := NewAnalogCanceller(1.0)
	got := a.Tune(si, 20e6, 16)
	if got < 42 {
		t.Errorf("refined cancellation %.1f dB does not beat the ~37 dB independent-rounding floor", got)
	}
}

func TestAnalogCancellerAttenuatorsQuantized(t *testing.T) {
	src := rng.New(4)
	si := NewTypicalSIChannel(src)
	a := NewAnalogCanceller(1.0)
	a.Tune(si, 20e6, 16)
	for i, att := range a.AttenDB {
		if math.IsInf(att, 1) {
			continue
		}
		if att < 0 || att > AttenMaxDB {
			t.Errorf("tap %d attenuation %v out of range", i, att)
		}
		steps := att / AttenStepDB
		if math.Abs(steps-math.Round(steps)) > 1e-9 {
			t.Errorf("tap %d attenuation %v not on the 0.25 dB grid", i, att)
		}
	}
}

func TestCancellationDBOnePointIsBandEdges(t *testing.T) {
	// One point would sample the band at 0/0; like Tune, the measurement
	// clamps to the band's two edges.
	si := NewTypicalSIChannel(rng.New(12))
	a := NewAnalogCanceller(1.0)
	a.AttenDB[0], a.AttenDB[5] = 6, 12.5
	got, want := a.CancellationDB(si, 20e6, 1), a.CancellationDB(si, 20e6, 2)
	if math.IsNaN(got) || math.IsInf(got, 0) || got != want {
		t.Errorf("CancellationDB at 1 point = %v, want the 2-point %v", got, want)
	}
}

func TestEstimateFIRRecoversChannel(t *testing.T) {
	src := rng.New(5)
	h := []complex128{0.5, -0.2i, 0.1, 0, 0.05}
	tx := src.NoiseVector(2000, 1)
	rx := dsp.FilterSame(tx, h)
	got, err := EstimateFIR(tx, rx, len(h), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		if cmplx.Abs(got[i]-h[i]) > 1e-9 {
			t.Fatalf("tap %d: %v vs %v", i, got[i], h[i])
		}
	}
}

func TestEstimateFIRUnderNoise(t *testing.T) {
	src := rng.New(6)
	h := []complex128{0.3, 0.1i}
	tx := src.NoiseVector(20000, 1)
	rx := dsp.FilterSame(tx, h)
	rx = dsp.Add(rx, src.NoiseVector(len(rx), 1e-6))
	got, err := EstimateFIR(tx, rx, 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got[0]-h[0]) > 1e-3 || cmplx.Abs(got[1]-h[1]) > 1e-3 {
		t.Errorf("noisy estimate off: %v", got[:2])
	}
}

func TestDigitalCancellerZeroLatency(t *testing.T) {
	// The canceller must clean the *current* received sample using the
	// *current* transmitted sample — no buffering (Fig 9a). With SI taps
	// h[0]=1 only, rx[n] = tx[n], and the output must be zero from sample 0.
	d := NewDigitalCanceller([]complex128{1})
	for n := 0; n < 10; n++ {
		tx := complex(float64(n+1), -1)
		if out := d.Push(tx, tx); cmplx.Abs(out) > 1e-15 {
			t.Fatalf("sample %d not cancelled instantaneously: %v", n, out)
		}
	}
}

func TestDigitalCancellerEndToEnd(t *testing.T) {
	// Full digital chain: residual SI channel -> estimate -> streaming
	// cancel; desired signal must survive intact.
	src := rng.New(7)
	hRes := []complex128{0, 0.01, 0.02i, -0.005, 0.001} // post-analog residual
	tx := src.NoiseVector(5000, 100)                    // 20 dBm
	want := src.NoiseVector(5000, 1e-5)                 // −50 dBm desired signal
	rx := dsp.Add(dsp.FilterSame(tx, hRes), want)

	est, err := EstimateFIR(tx, rx, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Estimating on rx that contains the desired signal biases the estimate
	// slightly; with independent tx it stays tiny.
	dc := NewDigitalCanceller(est)
	clean := dc.Process(tx, rx)
	// Residual error vs the desired signal.
	errPow := dsp.Power(dsp.Sub(clean, want))
	sigPow := dsp.Power(want)
	if errPow > sigPow/100 {
		t.Errorf("post-cancellation error %.3g vs signal %.3g", errPow, sigPow)
	}
}

func TestCorrelationTrap(t *testing.T) {
	// The relay-specific failure mode (Sec 3.3): the transmitted signal is
	// a (nearly) delayed copy of the received signal, so an adaptive filter
	// that regresses the received signal on the relayed signal also
	// captures α(f) — and cancellation then removes the *desired* signal.
	src := rng.New(8)
	const n = 6000
	const delay = 3
	const amp = 2.0
	hSI := []complex128{0, 0.05, 0.02i}

	s := src.NoiseVector(n, 1)
	tx := dsp.Scale(dsp.Delay(s, delay), amp)
	rx := dsp.Add(s, dsp.FilterSame(tx, hSI))

	// The trap, made explicit: a non-causal adaptive canceller effectively
	// regresses on the advanced relayed signal (which equals amp·s). The
	// fit then nulls the desired signal along with the SI.
	adv := dsp.Delay(tx, -delay)
	trap, err := EstimateFIR(adv, rx, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	trapClean := NewDigitalCanceller(trap).Process(adv, rx)
	sPow := dsp.Power(s)
	// Ignore edge samples where Delay() zero-padding breaks the identity.
	core := trapClean[10 : n-10]
	if got := dsp.Power(core); got > sPow/20 {
		t.Errorf("correlated estimator failed to exhibit the trap: residual %.3g vs signal %.3g — "+
			"the desired signal should have been (wrongly) cancelled", got, sPow)
	}
}

func TestNoiseInjectionTuningPreservesSignal(t *testing.T) {
	// The fix for the correlation trap: tune against independently injected
	// Gaussian noise. Realistic scales: the relay transmits at 20 dBm
	// (power 100), injects tuning noise 30 dB below (0.1), and the desired
	// source signal arrives at −60 dBm (1e-6) — so the injection dominates
	// the desired signal and the estimate is clean. Tuning happens during a
	// warm-up in which the relay emits only the tuning noise (forwarding
	// off), as when a relay first comes online.
	src := rng.New(88)
	// The estimate must be accurate to roughly −100 dB relative to the
	// forwarded power for the residual to sit below the weak desired
	// signal; the paper achieves this by correlating over long windows
	// (tens of thousands of samples = a few ms at 20 Msps).
	const n = 200000
	hSI := []complex128{0, 0.05, 0.02i}

	inj := src.NoiseVector(n, 0.1)
	sWarm := src.NoiseVector(n, 1e-6)
	rxWarm := dsp.Add(sWarm, dsp.FilterSame(inj, hSI))
	est, err := EstimateFIR(inj, rxWarm, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate must match the SI channel closely.
	for i := 0; i < 3; i++ {
		if cmplx.Abs(est[i]-hSI[i]) > 3e-3 {
			t.Errorf("tap %d estimate %v, want %v", i, est[i], hSI[i])
		}
	}

	// Now operate: relay forwards at full power while the desired signal
	// flows; cancellation with the noise-tuned filter must preserve the
	// desired signal (scaled comparison, power domain).
	s := src.NoiseVector(n, 1e-6)
	txOp := src.NoiseVector(n, 100) // stand-in for the relayed waveform
	rxOp := dsp.Add(s, dsp.FilterSame(txOp, hSI))
	clean := NewDigitalCanceller(est).Process(txOp, rxOp)
	residual := dsp.Power(dsp.Sub(clean, s))
	if residual > 0.05*dsp.Power(s) {
		t.Errorf("noise-injection-tuned canceller distorted the desired signal: %.3g vs %.3g",
			residual, dsp.Power(s))
	}
}

func TestMeasureCancellation(t *testing.T) {
	if got := MeasureCancellationDB(1, 1e-7); math.Abs(got-70) > 1e-9 {
		t.Errorf("70 dB case = %v", got)
	}
	if got := MeasureCancellationDB(1, 0); got != MaxCancellationDB {
		t.Errorf("zero residual should cap at %v, got %v", MaxCancellationDB, got)
	}
	if got := MeasureCancellationDB(1, 1e-20); got != MaxCancellationDB {
		t.Errorf("cap not applied: %v", got)
	}
	if got := MeasureCancellationDB(0, 1); got != 0 {
		t.Errorf("zero SI should be 0, got %v", got)
	}
}

func TestFullCancellationChainReaches110dB(t *testing.T) {
	// Sec 3.3 experimental result: 108–110 dB total cancellation with
	// 20 dBm TX and a −90 dBm noise floor.
	if testing.Short() {
		t.Skip("full-chain tuning sweep is slow")
	}
	src := rng.New(9)
	for trial := 0; trial < 5; trial++ {
		si := NewTypicalSIChannel(src)
		a := NewAnalogCanceller(1.0)
		analogDB := a.Tune(si, 20e6, 16)

		const fs = 20e6
		const nChanTaps = 16
		const align = 2
		residual := a.ResidualFIR(si, fs, nChanTaps, align)

		tx := src.NoiseVector(8000, 100)     // 20 dBm
		noise := src.NoiseVector(8000, 1e-9) // −90 dBm floor
		rxSI := dsp.FilterSame(tx, residual) // post-analog SI
		rx := dsp.Add(rxSI, noise)

		est, err := EstimateFIR(tx, rx, 24, 0)
		if err != nil {
			t.Fatal(err)
		}
		clean := NewDigitalCanceller(est).Process(tx, rx)

		// The paper measures cancellation as transmit power over residual:
		// "the maximum cancellation expected is 110dB, since the maximum
		// transmit power is 20dBm and the noise floor is −90dBm" — passive
		// isolation counts toward the total.
		total := MeasureCancellationDB(dsp.Power(tx), dsp.Power(clean))
		if total < 107 {
			t.Errorf("trial %d: total cancellation %.1f dB (analog %.1f), want 108-110",
				trial, total, analogDB)
		}
	}
}

func BenchmarkAnalogTune(b *testing.B) {
	src := rng.New(10)
	si := NewTypicalSIChannel(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAnalogCanceller(1.0)
		a.Tune(si, 20e6, 16)
	}
}

func BenchmarkDigitalCancel120Taps(b *testing.B) {
	src := rng.New(11)
	taps := src.NoiseVector(120, 1e-4)
	dc := NewDigitalCanceller(taps)
	tx := src.NoiseVector(1024, 100)
	rx := src.NoiseVector(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Process(tx, rx)
	}
}
