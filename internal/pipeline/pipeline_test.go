package pipeline_test

import (
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// buildChain constructs a representative relay-shaped chain: cancel →
// CFO remove → FIR → CFO restore → gain → delay → handoff marker.
func buildChain(taps, pre []complex128, step float64) (*pipeline.Chain, *pipeline.CancelStage) {
	cancel := pipeline.NewCancelStage("si_cancel", taps)
	ch := pipeline.NewChain("test.fwd",
		cancel,
		pipeline.NewCFOStage("cfo_remove", -step),
		pipeline.NewFIRStage("cnf_pre", pre),
		pipeline.NewCFOStage("cfo_restore", step),
		pipeline.NewGainStage("amp", complex(1.3, 0)),
		pipeline.NewDelayStage("pipe", 2),
		pipeline.NewLatencyMarker("handoff", 1),
	)
	return ch, cancel
}

func testSignal(src *rng.Source, n int) []complex128 {
	return src.NoiseVector(n, 1.0)
}

func randTaps(src *rng.Source, n int) []complex128 {
	t := make([]complex128, n)
	for i := range t {
		t[i] = src.ComplexGaussian(1.0 / float64(n))
	}
	return t
}

// TestBlockSizeInvariance is the segmentation property: blocks of size 1,
// 7, 64, and the whole signal must yield bit-identical output on the
// direct path, and the obs counters must agree modulo block counts.
func TestBlockSizeInvariance(t *testing.T) {
	src := rng.New(41)
	taps := randTaps(src, 24)
	pre := randTaps(src, 5)
	sig := testSignal(src, 1000)
	ref := testSignal(src, 1000)

	run := func(blockSize int, reg *obs.Registry) []complex128 {
		ch, cancel := buildChain(taps, pre, 0.01)
		ch.Instrument(pipeline.NewObs(reg), 0)
		cancel.SetReference(ref)
		out := make([]complex128, len(sig))
		copy(out, sig)
		for start := 0; start < len(out); start += blockSize {
			end := start + blockSize
			if end > len(out) {
				end = len(out)
			}
			ch.Process(out[start:end])
		}
		return out
	}

	whole := run(len(sig), nil)
	for _, bs := range []int{1, 7, 64} {
		reg := obs.New()
		got := run(bs, reg)
		for i := range whole {
			if got[i] != whole[i] {
				t.Fatalf("block size %d: sample %d = %v, want %v (bit-exact)", bs, i, got[i], whole[i])
			}
		}
		// Counters: samples must be exact; blocks counts the segmentation.
		samples := reg.Counter("pipeline.samples", "samples").Value()
		if samples != uint64(len(sig)) {
			t.Fatalf("block size %d: pipeline.samples = %d, want %d", bs, samples, len(sig))
		}
		wantBlocks := uint64((len(sig) + bs - 1) / bs)
		if blocks := reg.Counter("pipeline.blocks", "blocks").Value(); blocks != wantBlocks {
			t.Fatalf("block size %d: pipeline.blocks = %d, want %d", bs, blocks, wantBlocks)
		}
	}
}

// TestFIRStageMatchesDirectForm pins the direct path to dsp.FIR sample
// for sample.
func TestFIRStageMatchesDirectForm(t *testing.T) {
	src := rng.New(7)
	taps := randTaps(src, 120)
	sig := testSignal(src, 500)

	fir := dsp.NewFIR(taps)
	st := pipeline.NewFIRStage("fir", taps)
	got := make([]complex128, len(sig))
	copy(got, sig)
	st.Process(got)
	for i, v := range sig {
		want := fir.Push(v)
		if got[i] != want {
			t.Fatalf("sample %d: %v, want %v (bit-exact)", i, got[i], want)
		}
	}
}

// TestFFTPathMatchesDirect holds the overlap-save fast path to 1e-9 of
// the direct form, across mixed block sizes (so the shared delay-line
// state is exercised in both directions).
func TestFFTPathMatchesDirect(t *testing.T) {
	src := rng.New(11)
	taps := randTaps(src, 120)
	sig := testSignal(src, 4096)

	direct := pipeline.NewFIRStage("direct", taps)
	fast := pipeline.NewFIRStage("fast", taps)
	fast.EnableFFT()
	if !fast.FFTEnabled() {
		t.Fatal("FFT path did not arm for a 120-tap filter")
	}

	// Mixed segmentation: small blocks ride the direct form inside the
	// FFT-armed stage, large blocks take overlap-save.
	splits := []int{64, 1000, 17, 2048, 967}
	want := make([]complex128, len(sig))
	copy(want, sig)
	direct.Process(want)

	got := make([]complex128, len(sig))
	copy(got, sig)
	pos := 0
	for _, n := range splits {
		fast.Process(got[pos : pos+n])
		pos += n
	}
	fast.Process(got[pos:])

	var worst float64
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("FFT path diverges from direct form by %g (budget 1e-9)", worst)
	}
	if worst == 0 {
		t.Log("FFT path happened to be bit-exact on this signal")
	}
}

// TestFFTBlockCounter checks the fast path reports through
// pipeline.fft_blocks. The filter is the 120-tap canceller: below
// soaFFTCrossoverTaps (80) an armed overlap-save path yields to the
// planar kernel.
func TestFFTBlockCounter(t *testing.T) {
	src := rng.New(3)
	taps := randTaps(src, 120)
	sig := testSignal(src, 512)

	st := pipeline.NewFIRStage("fir", taps)
	st.EnableFFT()
	ch := pipeline.NewChain("test.fft", st)
	reg := obs.New()
	ch.Instrument(pipeline.NewObs(reg), 0)

	buf := append([]complex128(nil), sig...)
	ch.Process(buf[:16]) // below minBlock: direct
	ch.Process(buf[16:]) // above: overlap-save
	if got := reg.Counter("pipeline.fft_blocks", "blocks").Value(); got != 1 {
		t.Fatalf("pipeline.fft_blocks = %d, want 1", got)
	}
}

// TestChainLatencyAndBudget checks latency accounting and the soft
// budget check.
func TestChainLatencyAndBudget(t *testing.T) {
	ch, _ := buildChain([]complex128{0.1}, []complex128{1}, 0)
	if got := ch.LatencySamples(); got != 3 {
		t.Fatalf("LatencySamples = %d, want 3 (2 delay + 1 handoff)", got)
	}
	reg := obs.New()
	ch.Instrument(pipeline.NewObs(reg), 0)
	if !ch.CheckBudget(8) {
		t.Fatal("3-sample chain should fit an 8-sample CP budget")
	}
	if ch.CheckBudget(2) {
		t.Fatal("3-sample chain must not fit a 2-sample budget")
	}
	if got := reg.Counter("pipeline.budget_violations", "chains").Value(); got != 1 {
		t.Fatalf("pipeline.budget_violations = %d, want 1", got)
	}
	if got := reg.Histogram("pipeline.latency_samples", "samples", nil).Count(); got != 2 {
		t.Fatalf("latency histogram count = %d, want 2", got)
	}
}

// TestChainReset checks Reset returns the chain to its initial state.
func TestChainReset(t *testing.T) {
	src := rng.New(5)
	taps := randTaps(src, 16)
	pre := randTaps(src, 4)
	sig := testSignal(src, 200)
	ref := testSignal(src, 200)

	ch, cancel := buildChain(taps, pre, 0.02)
	run := func() []complex128 {
		cancel.SetReference(ref)
		out := append([]complex128(nil), sig...)
		return ch.Process(out)
	}
	first := run()
	ch.Reset()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("after Reset, sample %d = %v, want %v", i, second[i], first[i])
		}
	}
}

// TestCancelStagePushPairMatchesProcess pins the per-sample and block
// cancel paths to each other.
func TestCancelStagePushPairMatchesProcess(t *testing.T) {
	src := rng.New(13)
	taps := randTaps(src, 24)
	tx := testSignal(src, 300)
	rx := testSignal(src, 300)

	perSample := pipeline.NewCancelStage("a", taps)
	block := pipeline.NewCancelStage("b", taps)
	block.SetReference(tx)
	out := append([]complex128(nil), rx...)
	block.Process(out)
	for i := range rx {
		want := perSample.PushPair(tx[i], rx[i])
		if out[i] != want {
			t.Fatalf("sample %d: block %v, per-sample %v (bit-exact)", i, out[i], want)
		}
	}
}

// TestMIMOChainBlockInvariance is the segmentation property for the MIMO
// chain shape the 2×2 relay uses.
func TestMIMOChainBlockInvariance(t *testing.T) {
	src := rng.New(17)
	cancelTaps := [][][]complex128{
		{randTaps(src, 4), randTaps(src, 4)},
		{randTaps(src, 4), randTaps(src, 4)},
	}
	preTaps := [][][]complex128{
		{randTaps(src, 3), randTaps(src, 3)},
		{randTaps(src, 3), randTaps(src, 3)},
	}
	n := 600
	sig := [][]complex128{testSignal(src, n), testSignal(src, n)}
	ref := [][]complex128{testSignal(src, n), testSignal(src, n)}

	run := func(blockSize int) [][]complex128 {
		cancel := pipeline.NewMIMOCancelStage("si_cancel", 2, cancelTaps)
		ch := pipeline.NewMIMOChain("test.mimo",
			cancel,
			pipeline.NewMIMOMixStage("cnf_pre", 2, preTaps, true),
			pipeline.NewMIMOEachStage("amp",
				pipeline.NewGainStage("amp0", 1.1),
				pipeline.NewGainStage("amp1", 1.1)),
			pipeline.NewMIMOEachStage("pipe",
				pipeline.NewDelayStage("pipe0", 1),
				pipeline.NewDelayStage("pipe1", 1)),
		)
		out := [][]complex128{
			append([]complex128(nil), sig[0]...),
			append([]complex128(nil), sig[1]...),
		}
		cancel.SetReference([][]complex128{ref[0], ref[1]})
		for start := 0; start < n; start += blockSize {
			end := start + blockSize
			if end > n {
				end = n
			}
			ch.ProcessM([][]complex128{out[0][start:end], out[1][start:end]})
		}
		return out
	}

	whole := run(n)
	for _, bs := range []int{1, 7, 64} {
		got := run(bs)
		for s := 0; s < 2; s++ {
			for i := range whole[s] {
				if got[s][i] != whole[s][i] {
					t.Fatalf("block size %d stream %d sample %d: %v, want %v", bs, s, i, got[s][i], whole[s][i])
				}
			}
		}
	}
}

// TestVecMulAndTap checks the frequency-domain stages compose as the
// testbed uses them: start from hrd, multiply hc (tap), multiply hsr.
func TestVecMulAndTap(t *testing.T) {
	src := rng.New(23)
	n := 52
	hrd := testSignal(src, n)
	hc := testSignal(src, n)
	hsr := testSignal(src, n)

	tap := pipeline.NewTapStage("after_cnf")
	ch := pipeline.NewChain("test.freq",
		pipeline.NewVecMulStage("cnf", hc),
		tap,
		pipeline.NewVecMulStage("hop", hsr),
	)
	out := append([]complex128(nil), hrd...)
	ch.Process(out)
	for i := 0; i < n; i++ {
		if want := hrd[i] * hc[i] * hsr[i]; out[i] != want {
			t.Fatalf("carrier %d: %v, want %v (grouping must be (hrd·hc)·hsr)", i, out[i], want)
		}
		if want := hrd[i] * hc[i]; tap.Samples()[i] != want {
			t.Fatalf("tap %d: %v, want %v", i, tap.Samples()[i], want)
		}
	}
}

// TestPusherStage wraps a stateful per-sample processor and checks
// latency declaration plus reset.
func TestPusherStage(t *testing.T) {
	p := &countingPusher{}
	st := pipeline.NewPusherStage("imp", 0, p)
	ch := pipeline.NewChain("test.push", st)
	ch.Process(make([]complex128, 10))
	if p.n != 10 {
		t.Fatalf("pusher saw %d samples, want 10", p.n)
	}
	ch.Reset()
	if p.n != 0 {
		t.Fatal("reset did not reach the wrapped pusher")
	}
	if ch.LatencySamples() != 0 {
		t.Fatal("memoryless pusher must declare zero latency")
	}
}

type countingPusher struct{ n int }

func (p *countingPusher) Push(v complex128) complex128 { p.n++; return v }
func (p *countingPusher) Reset()                       { p.n = 0 }

// TestCFOStageRoundTrip checks remove∘restore is energy-preserving and
// the accumulated phase matches n·step.
func TestCFOStageRoundTrip(t *testing.T) {
	src := rng.New(29)
	sig := testSignal(src, 256)
	step := 0.037
	remove := pipeline.NewCFOStage("rm", -step)
	restore := pipeline.NewCFOStage("rs", step)
	out := append([]complex128(nil), sig...)
	remove.Process(out)
	restore.Process(out)
	for i := range sig {
		if d := cmplx.Abs(out[i] - sig[i]); d > 1e-12 {
			t.Fatalf("round trip error %g at %d", d, i)
		}
	}
	// One-stage rotation matches the closed form.
	single := pipeline.NewCFOStage("one", step)
	out2 := append([]complex128(nil), sig...)
	single.Process(out2)
	for i := range sig {
		want := sig[i] * cmplx.Exp(complex(0, float64(i)*step))
		if d := cmplx.Abs(out2[i] - want); d > 1e-9 {
			t.Fatalf("accumulated phase drifts from closed form by %g at %d", d, i)
		}
	}
}

// TestOvsaveStateHandoff checks switching direct→FFT→direct mid-stream
// keeps the shared delay line consistent (no seam at the boundaries).
func TestOvsaveStateHandoff(t *testing.T) {
	src := rng.New(31)
	taps := randTaps(src, 64)
	sig := testSignal(src, 1024)

	want := pipeline.NewFIRStage("ref", taps)
	ref := append([]complex128(nil), sig...)
	want.Process(ref)

	st := pipeline.NewFIRStage("mix", taps)
	st.EnableFFT()
	got := append([]complex128(nil), sig...)
	st.Process(got[:10])     // direct (below minBlock)
	st.Process(got[10:700])  // FFT
	st.Process(got[700:710]) // direct again
	st.Process(got[710:])    // FFT
	var worst float64
	for i := range ref {
		if d := cmplx.Abs(got[i] - ref[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 || math.IsNaN(worst) {
		t.Fatalf("mixed direct/FFT processing diverges by %g", worst)
	}
}
