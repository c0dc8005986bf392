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

func maxDiff(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// soaTapCounts spans the direct-form-only filters (below minSoATaps), the
// session chain's 16/24-tap filters, odd lengths that leave a firMAC4 tail,
// and the paper's 120-tap canceller.
var soaTapCounts = []int{1, 3, 4, 5, 16, 24, 120}

// soaSplits segments a 4096-sample signal so planar blocks alternate with
// blocks below minSoABlock (7, 1, 17, 31), which run the direct form: the
// shared delay line hands off in both directions, including blocks
// shorter than the filter.
var soaSplits = []int{64, 7, 1000, 1, 17, 2048, 31, 32, 33}

// processSplits feeds sig through process in soaSplits segments, then the
// remainder in one call.
func processSplits(sig []complex128, process func([]complex128) []complex128) {
	pos := 0
	for _, n := range soaSplits {
		process(sig[pos : pos+n])
		pos += n
	}
	process(sig[pos:])
}

// TestSoAPathMatchesDirect pins FIRStage's block path to the per-sample
// direct form (dsp.FIR.Push) bit for bit across filter lengths and mixed
// segmentations, and checks that the planar kernel is armed by
// construction: it runs exactly on the eligible blocks of filters of
// minSoATaps (4) taps or more.
func TestSoAPathMatchesDirect(t *testing.T) {
	src := rng.New(19)
	for _, ntaps := range soaTapCounts {
		taps := randTaps(src, ntaps)
		sig := testSignal(src, 4096)

		oracle := dsp.NewFIR(taps)
		want := make([]complex128, len(sig))
		for i, v := range sig {
			want[i] = oracle.Push(v)
		}

		st := pipeline.NewFIRStage("fir", taps)
		ch := pipeline.NewChain("soa", st)
		reg := obs.New()
		ch.Instrument(pipeline.NewObs(reg), 0)
		got := append([]complex128(nil), sig...)
		processSplits(got, ch.Process)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d taps: sample %d = %v, Push oracle %v (bit-exact)", ntaps, i, got[i], want[i])
			}
		}
		wantSoA := uint64(0)
		if ntaps >= 4 {
			wantSoA = 6 // 64, 1000, 2048, 32, 33 and the 863-sample remainder
		}
		if n := reg.Counter("pipeline.soa_blocks", "blocks").Value(); n != wantSoA {
			t.Fatalf("%d taps: pipeline.soa_blocks = %d, want %d", ntaps, n, wantSoA)
		}
	}
}

// TestSoABlockCounter checks the planar path reports through
// pipeline.soa_blocks.
func TestSoABlockCounter(t *testing.T) {
	src := rng.New(23)
	taps := randTaps(src, 32)
	sig := testSignal(src, 512)

	st := pipeline.NewFIRStage("fir", taps)
	ch := pipeline.NewChain("soa", st)
	reg := obs.New()
	ch.Instrument(pipeline.NewObs(reg), 0)

	ch.Process(sig[:256])    // planar
	ch.Process(sig[256:264]) // below minSoABlock: direct
	ch.Process(sig[264:])    // planar

	if got := reg.Counter("pipeline.soa_blocks", "blocks").Value(); got != 2 {
		t.Fatalf("pipeline.soa_blocks = %d, want 2", got)
	}
}

// TestCancelSoAMatchesDirect pins the cancel stage's planar branch
// (filter the reference, subtract the planar estimate from the block) to
// the per-sample canceller rx − FIR.Push(tx) bit for bit, across the same
// filter lengths and segmentations.
func TestCancelSoAMatchesDirect(t *testing.T) {
	src := rng.New(29)
	for _, ntaps := range soaTapCounts {
		taps := randTaps(src, ntaps)
		rx := testSignal(src, 4096)
		tx := testSignal(src, 4096)

		oracle := dsp.NewFIR(taps)
		want := make([]complex128, len(rx))
		for i := range rx {
			want[i] = rx[i] - oracle.Push(tx[i])
		}

		c := pipeline.NewCancelStage("cancel", taps)
		c.SetReference(tx)
		got := append([]complex128(nil), rx...)
		processSplits(got, c.Process)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d taps: sample %d = %v, Push oracle %v (bit-exact)", ntaps, i, got[i], want[i])
			}
		}
	}
}

// TestCFORotatorReset checks Reset returns the rotator to its
// construction state: after streaming across several resyncs in mixed
// segments, the output equals a fresh stage's bit for bit.
func TestCFORotatorReset(t *testing.T) {
	step := 2 * math.Pi * 1500 / 20e6
	sig := testSignal(rng.New(31), 4096)

	fresh := append([]complex128(nil), sig...)
	pipeline.NewCFOStage("cfo", step).Process(fresh)

	st := pipeline.NewCFOStage("cfo", step)
	for _, n := range []int{1, 255, 256, 257, 1000} {
		st.Process(append([]complex128(nil), sig[:n]...))
	}
	st.Reset()
	got := append([]complex128(nil), sig...)
	processSplits(got, st.Process)
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("after Reset, sample %d = %v, fresh stage %v (bit-exact)", i, got[i], fresh[i])
		}
	}
}

// TestChainFastPathMatchesDirect arms the one opt-in approximate path,
// overlap-save on the 120-tap canceller, on a relay-shaped chain and
// holds the result to 1e-9 of the default (bit-exact) chain.
func TestChainFastPathMatchesDirect(t *testing.T) {
	src := rng.New(37)
	taps := randTaps(src, 120)
	pre := randTaps(src, 16)
	sig := testSignal(src, 4096)
	ref := testSignal(src, 4096)

	run := func(fft bool) []complex128 {
		ch, cancel := buildChain(taps, pre, 2*math.Pi*1500/20e6)
		if fft {
			cancel.EnableFFT()
		}
		cancel.SetReference(ref)
		out := make([]complex128, len(sig))
		copy(out, sig)
		for pos := 0; pos < len(out); pos += 1024 {
			ch.Process(out[pos : pos+1024])
		}
		return out
	}

	want := run(false)
	got := run(true)
	if worst := maxDiff(got, want); worst > 1e-9 {
		t.Fatalf("chain FFT path diverges by %g (budget 1e-9)", worst)
	}
}

// buildSessions constructs n identical-shape session chains with
// per-session taps, the way the multi-session sweep does.
func buildSessions(seed int64, n, ntaps, npre, blockLen int) ([]*pipeline.Chain, []*pipeline.CancelStage, [][]complex128, [][]complex128) {
	chains := make([]*pipeline.Chain, n)
	cancels := make([]*pipeline.CancelStage, n)
	txs := make([][]complex128, n)
	rxs := make([][]complex128, n)
	for i := 0; i < n; i++ {
		src := rng.New(rng.ItemSeed(seed, i))
		chains[i], cancels[i] = buildChain(randTaps(src, ntaps), randTaps(src, npre), 0.003)
		txs[i] = testSignal(src, blockLen)
		rxs[i] = testSignal(src, blockLen)
	}
	return chains, cancels, txs, rxs
}

// TestBatchMatchesSequential proves the batched executor is bit-identical
// to advancing the same chains one by one: the stage sweep reorders which
// stage runs when across sessions, but each chain's state is private, so
// every sample is computed by the same operations in the same order.
// Runs instrumented, on the planar block path.
func TestBatchMatchesSequential(t *testing.T) {
	const (
		nSessions = 4
		blockLen  = 256
		nBlocks   = 8
	)
	// Sequential reference.
	seqChains, seqCancels, txs, rxs := buildSessions(97, nSessions, 48, 9, blockLen)
	seqOut := make([][]complex128, nSessions)
	seqReg := obs.New()
	seqObs := pipeline.NewObs(seqReg)
	for i, ch := range seqChains {
		ch.Instrument(seqObs, 0)
		seqOut[i] = make([]complex128, blockLen)
	}
	// Batched run over identically-seeded chains.
	batChains, batCancels, _, _ := buildSessions(97, nSessions, 48, 9, blockLen)
	batch := pipeline.NewBatch("bat", batChains...)
	batReg := obs.New()
	batch.Instrument(pipeline.NewObs(batReg), 0)
	blocks := make([][]complex128, nSessions)
	for i := range blocks {
		blocks[i] = make([]complex128, blockLen)
	}

	for blk := 0; blk < nBlocks; blk++ {
		for i := 0; i < nSessions; i++ {
			copy(seqOut[i], rxs[i])
			seqCancels[i].SetReference(txs[i])
			seqChains[i].Process(seqOut[i])

			copy(blocks[i], rxs[i])
			batCancels[i].SetReference(txs[i])
		}
		batch.ProcessAll(blocks)
		for i := 0; i < nSessions; i++ {
			for j := range blocks[i] {
				if blocks[i][j] != seqOut[i][j] {
					t.Fatalf("block %d session %d sample %d: batch %v, sequential %v (bit-exact)",
						blk, i, j, blocks[i][j], seqOut[i][j])
				}
			}
		}
	}

	// The batch records the same block/sample totals as the sequential
	// chains, plus its sweep counters.
	for _, m := range []struct {
		name, unit string
		want       uint64
	}{
		{"pipeline.blocks", "blocks", nSessions * nBlocks},
		{"pipeline.samples", "samples", nSessions * nBlocks * blockLen},
		{"pipeline.batch.sweeps", "sweeps", nBlocks},
		{"pipeline.batch.sessions", "blocks", nSessions * nBlocks},
	} {
		if got := batReg.Counter(m.name, m.unit).Value(); got != m.want {
			t.Fatalf("%s = %d, want %d", m.name, got, m.want)
		}
	}
	if got := seqReg.Counter("pipeline.blocks", "blocks").Value(); got != nSessions*nBlocks {
		t.Fatalf("sequential pipeline.blocks = %d, want %d", got, nSessions*nBlocks)
	}
}

// TestBatchStageCountMismatch pins the lockstep precondition.
func TestBatchStageCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatch accepted chains with unequal stage counts")
		}
	}()
	a := pipeline.NewChain("a", pipeline.NewGainStage("g", 1))
	b := pipeline.NewChain("b", pipeline.NewGainStage("g", 1), pipeline.NewGainStage("g2", 1))
	pipeline.NewBatch("bad", a, b)
}

// TestBatchRegistersNoDeadTimers checks that a batch's only timers are
// its per-position stage timers, each called once per sweep: member
// chains get the stage-level block-path counters but register no
// pipeline.<chain>.<stage> timers of their own, which the batch would
// never call.
func TestBatchRegistersNoDeadTimers(t *testing.T) {
	const blockLen = 256
	spec := pipeline.SessionChainSpec{CancelTaps: 24, CNFTaps: 16, CFOStepRad: 0.01, AmpGain: 2}
	var chains []*pipeline.Chain
	var blocks [][]complex128
	for i := 0; i < 2; i++ {
		src := rng.New(int64(i + 1))
		ch, cancel := pipeline.NewSessionChain(spec, src)
		cancel.SetReference(testSignal(src, blockLen))
		chains = append(chains, ch)
		blocks = append(blocks, testSignal(src, blockLen))
	}
	reg := obs.New()
	b := pipeline.NewBatch("bat", chains...)
	b.Instrument(pipeline.NewObs(reg), 0)
	b.ProcessAll(blocks)

	timings := reg.Snapshot().Timings
	if len(timings) != len(pipeline.SessionStageNames()) {
		t.Errorf("registered %d timers, want one per stage position (%d): %+v",
			len(timings), len(pipeline.SessionStageNames()), timings)
	}
	for _, tm := range timings {
		if tm.Calls == 0 {
			t.Errorf("timer %s registered with zero calls", tm.Stage)
		}
	}
	// Both filter stages of both sessions still count their planar blocks.
	if got := reg.Counter("pipeline.soa_blocks", "blocks").Value(); got != 4 {
		t.Errorf("pipeline.soa_blocks = %d, want 4", got)
	}
}

// TestBlockPool checks Get returns zeroed blocks and reuses recycled
// capacity.
func TestBlockPool(t *testing.T) {
	var p pipeline.BlockPool
	b := p.Get(64)
	if len(b) != 64 {
		t.Fatalf("Get(64) len = %d", len(b))
	}
	for i := range b {
		b[i] = complex(1, 1)
	}
	p.Put(b)
	c := p.Get(32)
	if cap(c) < 64 {
		t.Fatal("Get did not reuse the recycled block")
	}
	for i, v := range c {
		if v != 0 {
			t.Fatalf("recycled block not zeroed at %d: %v", i, v)
		}
	}
}

// TestSessionSweep smoke-tests the real-time search on a tiny config:
// the probe sequence must bracket the answer and the gauge must publish.
func TestSessionSweep(t *testing.T) {
	reg := obs.New()
	res := pipeline.RunSessionSweep(reg, pipeline.SessionConfig{
		BlockSamples:  256,
		CancelTaps:    8,
		CNFTaps:       4,
		Seed:          5,
		WarmSweeps:    1,
		MeasureSweeps: 2,
		MaxSessions:   8,
	})
	if len(res.Probes) == 0 {
		t.Fatal("sweep recorded no probes")
	}
	if res.Sessions < 0 || res.Sessions > 8 {
		t.Fatalf("Sessions = %d, want 0..8", res.Sessions)
	}
	if res.DeadlineNS != 256/20e6*1e9 {
		t.Fatalf("DeadlineNS = %g", res.DeadlineNS)
	}
	g, ok := reg.Gauge("pipeline.sessions_per_core", "sessions").Value()
	if !ok {
		t.Fatal("pipeline.sessions_per_core gauge not set")
	}
	if g != float64(res.Sessions) {
		t.Fatalf("gauge = %g, want %d", g, res.Sessions)
	}
	for _, p := range res.Probes {
		if p.RealTime != (p.NSPerSweep <= res.DeadlineNS) {
			t.Fatalf("probe %+v inconsistent with deadline %g", p, res.DeadlineNS)
		}
	}
}
