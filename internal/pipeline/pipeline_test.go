package pipeline_test

import (
	"math"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// buildChain constructs a representative relay-shaped chain: cancel →
// CFO remove → FIR → CFO restore → gain → delay.
func buildChain(taps, pre []complex128, step float64) (*pipeline.Chain, *pipeline.CancelStage) {
	cancel := pipeline.NewCancelStage("si_cancel", taps)
	ch := pipeline.NewChain("test.fwd",
		cancel,
		pipeline.NewCFOStage("cfo_remove", -step),
		pipeline.NewFIRStage("cnf_pre", pre),
		pipeline.NewCFOStage("cfo_restore", step),
		pipeline.NewGainStage("amp", complex(1.3, 0)),
		pipeline.NewDelayStage("pipe", 2),
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
// 7, 64, 1000, 4096 and the whole signal must yield bit-identical output,
// and the obs counters must agree modulo block counts. The 4096-sample
// blocks and the whole signal hold groups of whole CFO resync windows, so
// the interleaved rotator runs against the one-sample loop.
func TestBlockSizeInvariance(t *testing.T) {
	src := rng.New(41)
	taps := randTaps(src, 24)
	pre := randTaps(src, 5)
	sig := testSignal(src, 8192)
	ref := testSignal(src, 8192)

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
	for _, bs := range []int{1, 7, 64, 1000, 4096} {
		reg := obs.New()
		got := run(bs, reg)
		for i := range whole {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(whole[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(whole[i])) {
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

// TestChainLatencyAndBudget checks the soft budget check.
func TestChainLatencyAndBudget(t *testing.T) {
	reg := obs.New()
	o := pipeline.NewObs(reg)
	if !o.CheckBudget(0, 3, 8) {
		t.Fatal("a 3-sample delay should fit an 8-sample CP budget")
	}
	if o.CheckBudget(0, 3, 2) {
		t.Fatal("a 3-sample delay must not fit a 2-sample budget")
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

// TestPusherStage wraps a stateful per-sample processor and checks
// that it sees every sample and that Reset reaches it.
func TestPusherStage(t *testing.T) {
	p := &countingPusher{}
	st := pipeline.NewPusherStage("imp", p)
	ch := pipeline.NewChain("test.push", st)
	ch.Process(make([]complex128, 10))
	if p.n != 10 {
		t.Fatalf("pusher saw %d samples, want 10", p.n)
	}
	ch.Reset()
	if p.n != 0 {
		t.Fatal("reset did not reach the wrapped pusher")
	}
}

type countingPusher struct{ n int }

func (p *countingPusher) Push(v complex128) complex128 { p.n++; return v }
func (p *countingPusher) Reset()                       { p.n = 0 }
