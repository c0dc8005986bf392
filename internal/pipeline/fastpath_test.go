package pipeline_test

import (
	"math"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// soaTapCounts spans the direct-form-only filters (below dsp.FIR's
// four-tap planar minimum), the session chain's 16/24-tap filters, odd
// lengths that leave a firMAC4 tail, lengths that leave an eight-tap
// pass followed by a four-tap pass and a scalar tap (12, 15), and the
// paper's 120-tap canceller.
var soaTapCounts = []int{1, 3, 4, 5, 12, 15, 16, 24, 120}

// soaSplits segments a 4096-sample signal so planar blocks alternate with
// blocks below dsp.FIR's 32-sample planar minimum (7, 1, 17, 31), which
// run the direct form: the shared delay line hands off in both
// directions, including blocks shorter than the filter. The planar blocks
// 32 to 39 leave every tail (0 to 7 samples) that firMAC8 and firMAC4 run
// after their eight- and four-wide loops.
var soaSplits = []int{64, 7, 1000, 1, 17, 2048, 31, 32, 33, 34, 35, 36, 37, 38, 39}

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
// four taps or more.
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
			wantSoA = 12 // 64, 1000, 2048, 32 to 39 and the 644-sample remainder
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
	ch.Process(sig[256:264]) // below 32 samples: direct
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

// TestSessionSweep smoke-tests the real-time search on a tiny config:
// the probe sequence must bracket the answer, the gauge must publish,
// and the round counters must account for every session block the
// probes ran.
func TestSessionSweep(t *testing.T) {
	reg := obs.New()
	cfg := pipeline.SessionConfig{
		BlockSamples:  256,
		CancelTaps:    8,
		CNFTaps:       4,
		Seed:          5,
		WarmSweeps:    1,
		MeasureSweeps: 2,
		MaxSessions:   8,
	}
	res := pipeline.RunSessionSweep(reg, cfg)
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
	rounds := uint64(cfg.WarmSweeps + cfg.MeasureSweeps)
	var wantRounds, wantBlocks uint64
	for _, p := range res.Probes {
		if p.RealTime != (p.NSPerSweep <= res.DeadlineNS) {
			t.Fatalf("probe %+v inconsistent with deadline %g", p, res.DeadlineNS)
		}
		wantRounds += rounds
		wantBlocks += uint64(p.Sessions) * rounds
	}
	for _, m := range []struct {
		name, unit string
		want       uint64
	}{
		{"pipeline.blocks", "blocks", wantBlocks},
		{"pipeline.batch.sessions", "blocks", wantBlocks},
		{"pipeline.batch.sweeps", "sweeps", wantRounds},
	} {
		if got := reg.Counter(m.name, m.unit).Value(); got != m.want {
			t.Errorf("%s = %d, want %d", m.name, got, m.want)
		}
	}
	if reg.Counter("pipeline.soa_blocks", "blocks").Value() == 0 {
		t.Error("pipeline.soa_blocks = 0: the session filters never took the planar block path")
	}
	// Every registered stage timer is one the rounds actually call.
	timings := reg.Snapshot().Timings
	if len(timings) != len(pipeline.SessionStageNames()) {
		t.Errorf("registered %d timers, want one per session stage (%d): %+v",
			len(timings), len(pipeline.SessionStageNames()), timings)
	}
	for _, tm := range timings {
		if tm.Calls == 0 {
			t.Errorf("timer %s registered with zero calls", tm.Stage)
		}
	}
}
