package relay

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// sameSample reports whether a and b hold the same bits in both parts:
// the relay's delay line, unit taps and 20 dB gain are exact arithmetic.
func sameSample(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func basicConfig() Config {
	return Config{
		SampleRate:           20e6,
		AmplificationDB:      20,
		PipelineDelaySamples: 2,
	}
}

func TestPipelineDelayExact(t *testing.T) {
	// With no SI and a unit pre-filter, the relay output is the amplified
	// input delayed by exactly PipelineDelaySamples.
	for _, d := range []int{1, 2, 5, 8} {
		cfg := basicConfig()
		cfg.PipelineDelaySamples = d
		cfg.AmplificationDB = 0
		r := New(cfg)
		in := []complex128{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		out := r.Process(in)
		for i := range in {
			want := complex128(0)
			if i >= d {
				want = in[i-d]
			}
			if !sameSample(out[i], want) {
				t.Fatalf("delay %d: out[%d] = %v, want %v bit for bit", d, i, out[i], want)
			}
		}
	}
}

func TestAmplification(t *testing.T) {
	cfg := basicConfig()
	cfg.AmplificationDB = 20 // 10x amplitude
	r := New(cfg)
	out := r.Process([]complex128{1, 0, 0, 0, 0})
	if !sameSample(out[2], 10) {
		t.Errorf("amplified impulse = %v, want 10 bit for bit", out[2])
	}
}

func TestRejectsZeroDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for PipelineDelaySamples=0")
		}
	}()
	cfg := basicConfig()
	cfg.PipelineDelaySamples = 0
	New(cfg)
}

func TestPreFilterApplied(t *testing.T) {
	cfg := basicConfig()
	cfg.AmplificationDB = 0
	cfg.PreFilterTaps = []complex128{0.5i}
	r := New(cfg)
	out := r.Process([]complex128{1, 0, 0, 0})
	if !sameSample(out[2], 0.5i) {
		t.Errorf("pre-filtered impulse = %v, want 0.5i bit for bit", out[2])
	}
}

func TestFeedbackStability(t *testing.T) {
	// Fig 7: amplification above isolation destabilizes the loop;
	// below isolation it stays bounded. SI residual at -40 dB.
	si := []complex128{0, 0.01} // -40 dB residual, one-sample echo
	src := rng.New(1)
	in := src.NoiseVector(4000, 1)

	stable := Config{
		SampleRate:           20e6,
		AmplificationDB:      34, // A(34) < C(40)
		PipelineDelaySamples: 1,
		SIChannelTaps:        si,
	}
	rs := New(stable)
	outS := rs.Process(in)
	if p := dsp.Power(outS[2000:]); math.IsInf(p, 1) || math.IsNaN(p) || p > 1e9 {
		t.Errorf("stable configuration diverged: power %v", p)
	}

	unstable := stable
	unstable.AmplificationDB = 46 // A(46) > C(40)
	ru := New(unstable)
	outU := ru.Process(in)
	pu := dsp.Power(outU[3500:])
	ps := dsp.Power(outS[3500:])
	if pu < ps*1e4 {
		t.Errorf("expected divergence when A>C: unstable %v vs stable %v", pu, ps)
	}
}

func TestCancellationStabilizesHighAmplification(t *testing.T) {
	// Same SI, same amplification — but with a digital canceller matching
	// the SI channel, the loop gain collapses and the relay stays stable.
	si := []complex128{0, 0.01}
	src := rng.New(2)
	in := src.NoiseVector(4000, 1)
	cfg := Config{
		SampleRate:           20e6,
		AmplificationDB:      46,
		PipelineDelaySamples: 1,
		SIChannelTaps:        si,
		CancelTaps:           si, // perfect estimate
	}
	r := New(cfg)
	out := r.Process(in)
	p := dsp.Power(out[3000:])
	want := dsp.Power(in) * dsp.Linear(46)
	if p > want*3 {
		t.Errorf("cancelled loop power %v far above open-loop %v", p, want)
	}
}

func TestRelayedSignalFidelity(t *testing.T) {
	// With cancellation on, the relayed signal must be a clean delayed,
	// amplified copy of the input.
	si := []complex128{0, 0.02, 0.005i}
	src := rng.New(3)
	in := src.NoiseVector(2000, 1e-6)
	cfg := Config{
		SampleRate:           20e6,
		AmplificationDB:      40,
		PipelineDelaySamples: 2,
		SIChannelTaps:        si,
		CancelTaps:           si,
	}
	r := New(cfg)
	out := r.Process(in)
	want := dsp.Scale(dsp.Delay(in, 2), dsp.AmplitudeFromDB(40))
	// Compare after warmup.
	err := dsp.Power(dsp.Sub(out[100:], want[100:]))
	sig := dsp.Power(want[100:])
	if err > sig*1e-6 {
		t.Errorf("relayed signal distorted: error %v vs signal %v", err, sig)
	}
}

func TestCFORemoveRestore(t *testing.T) {
	// Sec 4.1: the relay corrects its CFO internally but restores it on
	// transmit, so the relayed signal keeps the source's offset. With a
	// unit pre-filter the remove/restore must cancel exactly.
	cfg := basicConfig()
	cfg.AmplificationDB = 0
	cfg.CFOHz = 137e3
	r := New(cfg)
	src := rng.New(4)
	in := src.NoiseVector(500, 1)
	out := r.Process(in)
	for i := 2; i < len(in); i++ {
		if cmplx.Abs(out[i]-in[i-2]) > 1e-9 {
			t.Fatalf("CFO restore broken at %d: %v vs %v", i, out[i], in[i-2])
		}
	}
}

func TestCFOInteractsWithMultiTapFilter(t *testing.T) {
	// With a multi-tap pre-filter, removing CFO before filtering and
	// restoring after is NOT the same as filtering the rotated signal —
	// which is exactly why the relay does the remove/restore dance. Verify
	// the relay's output equals rotate(filter(derotate(x))), delayed.
	cfg := basicConfig()
	cfg.AmplificationDB = 0
	cfg.CFOHz = 200e3
	taps := []complex128{0.7, 0.3i, -0.1}
	cfg.PreFilterTaps = taps
	r := New(cfg)
	src := rng.New(5)
	in := src.NoiseVector(300, 1)
	out := r.Process(in)

	// Reference computation.
	derot, _ := dsp.ApplyCFO(in, -200e3, 20e6, 0)
	filt := dsp.FilterSame(derot, taps)
	rerot, _ := dsp.ApplyCFO(filt, 200e3, 20e6, 0)
	want := dsp.Delay(rerot, 2)
	for i := 50; i < len(in); i++ {
		if cmplx.Abs(out[i]-want[i]) > 1e-9 {
			t.Fatalf("CFO+filter mismatch at %d: %v vs %v", i, out[i], want[i])
		}
	}
}

func TestInjectedNoisePresent(t *testing.T) {
	cfg := basicConfig()
	cfg.AmplificationDB = 0
	cfg.InjectNoiseMW = 0.25
	cfg.NoiseSource = rng.New(6)
	r := New(cfg)
	zero := make([]complex128, 10000)
	out := r.Process(zero)
	if p := dsp.Power(out); math.Abs(p-0.25) > 0.02 {
		t.Errorf("injected noise power %v, want 0.25", p)
	}
}

func TestHalfDuplexMeshRate(t *testing.T) {
	// Equal hops halve the rate.
	if got := HalfDuplexMeshRate(100, 100); math.Abs(got-50) > 1e-12 {
		t.Errorf("equal hops: %v, want 50", got)
	}
	// Bottleneck dominates.
	if got := HalfDuplexMeshRate(1000, 10); got >= 10 {
		t.Errorf("two-hop rate %v must be below bottleneck 10", got)
	}
	if HalfDuplexMeshRate(0, 100) != 0 {
		t.Error("dead hop must give zero")
	}
}

func TestBestHalfDuplexPrefersDirectWhenGood(t *testing.T) {
	// Sec 2: "for clients with decent SNRs to the AP, the half-duplex mesh
	// router is a bad option" — the combinator must fall back to direct.
	if got := BestHalfDuplexRate(80, 100, 100); got != 80 {
		t.Errorf("got %v, want direct 80", got)
	}
	if got := BestHalfDuplexRate(10, 100, 100); got != 50 {
		t.Errorf("got %v, want two-hop 50", got)
	}
}

func TestReset(t *testing.T) {
	cfg := basicConfig()
	cfg.SIChannelTaps = []complex128{0, 0.5}
	r := New(cfg)
	r.Process([]complex128{5, 5, 5, 5})
	r.Reset()
	out := r.Process([]complex128{0, 0, 0})
	for i, v := range out {
		if v != 0 {
			t.Fatalf("state leaked after reset at %d: %v", i, v)
		}
	}
}

func BenchmarkRelayStep(b *testing.B) {
	src := rng.New(7)
	cfg := Config{
		SampleRate:           20e6,
		AmplificationDB:      40,
		PipelineDelaySamples: 2,
		SIChannelTaps:        src.NoiseVector(16, 1e-4),
		CancelTaps:           src.NoiseVector(120, 1e-4),
		PreFilterTaps:        src.NoiseVector(4, 1),
	}
	r := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(complex(1, 1))
	}
}

// TestRelayMatchesForwardStages proves the device and the relay daemon
// run the same arithmetic: an FFRelay driven one sample per Step (no SI
// channel, no noise, a one-sample delay) transmits, one sample later and
// bit for bit, what the shared pipeline.NewForwardStages path computes
// when driven in 4096-sample blocks — the planar block kernels — with the
// relay's own transmitted samples as the canceller reference.
func TestRelayMatchesForwardStages(t *testing.T) {
	const n, block = 3 * 4096, 4096
	src := rng.New(21)
	canc := make([]complex128, 24)
	for k := range canc {
		canc[k] = src.ComplexGaussian(1e-4)
	}
	pre := make([]complex128, 16)
	for k := range pre {
		pre[k] = src.ComplexGaussian(1.0 / 16)
	}
	cfg := Config{
		SampleRate:           20e6,
		AmplificationDB:      6,
		PipelineDelaySamples: 1,
		PreFilterTaps:        pre,
		CFOHz:                1500,
		CancelTaps:           canc,
	}
	in := src.NoiseVector(n+1, 1)
	tx := New(cfg).Process(in)

	stages, cancel := pipeline.NewForwardStages(canc, pre, 2*math.Pi*cfg.CFOHz/cfg.SampleRate, cfg.AmplificationDB)
	ch := pipeline.NewChain("forward", stages...)
	out := append([]complex128(nil), in[:n]...)
	cancel.SetReference(tx[:n])
	for start := 0; start < n; start += block {
		ch.Process(out[start : start+block])
	}
	for i, v := range out {
		if v != tx[i+1] {
			t.Fatalf("sample %d: block path %v, relay transmitted %v (bit-exact)", i, v, tx[i+1])
		}
	}
}
