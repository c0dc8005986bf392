// Package fastforward's root benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation, each regenerating the
// figure's series and reporting the headline quantity as a custom metric
// (b.ReportMetric) so `go test -bench` output doubles as the reproduction
// record. See EXPERIMENTS.md for paper-vs-measured numbers.
package fastforward_test

import (
	"math"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/floorplan"
	"fastforward/internal/ident"
	"fastforward/internal/obs"
	"fastforward/internal/phyrate"
	"fastforward/internal/pipeline"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/sic"
	"fastforward/internal/stats"
	"fastforward/internal/testbed"
)

// benchConfig is the shared evaluation operating point for benchmarks:
// coarser than the default so the full suite runs in minutes.
func benchConfig(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig(seed)
	cfg.GridSpacingM = 2.5
	cfg.CarrierStride = 8
	return cfg
}

// BenchmarkFig1SNRHeatmap regenerates the Fig 1 coverage map of the home
// scenario and reports the median SNR with and without the relay.
func BenchmarkFig1SNRHeatmap(b *testing.B) {
	cfg := benchConfig(1)
	cfg.GridSpacingM = 1.5
	sc := floorplan.Scenarios()[0]
	var s testbed.SummaryStats
	for i := 0; i < b.N; i++ {
		s = testbed.Summarize(testbed.Heatmap(sc, cfg))
	}
	b.ReportMetric(s.MedianAPOnlySNRdB, "apOnlyMedianSNRdB")
	b.ReportMetric(s.MedianFFSNRdB, "ffMedianSNRdB")
}

// BenchmarkFig2StreamHeatmap regenerates the Fig 2 spatial-stream map and
// reports two-stream coverage fractions.
func BenchmarkFig2StreamHeatmap(b *testing.B) {
	cfg := benchConfig(1)
	cfg.GridSpacingM = 1.5
	sc := floorplan.Scenarios()[0]
	var s testbed.SummaryStats
	for i := 0; i < b.N; i++ {
		s = testbed.Summarize(testbed.Heatmap(sc, cfg))
	}
	b.ReportMetric(100*s.FracAPOnlyTwoStreams, "apOnly2streamPct")
	b.ReportMetric(100*s.FracFFStream2, "ff2streamPct")
}

// BenchmarkSec33Cancellation regenerates the Sec 3.3 cancellation
// characterization: analog stage tuning plus causal digital cancellation,
// reporting the total achieved (paper: 108-110 dB).
func BenchmarkSec33Cancellation(b *testing.B) {
	var total, analog float64
	for i := 0; i < b.N; i++ {
		src := rng.New(int64(i + 1))
		si := sic.NewTypicalSIChannel(src)
		a := sic.NewAnalogCanceller(1.0)
		analog = a.Tune(si, 20e6, 16)
		residual := a.ResidualFIR(si, 20e6, 16, 2)
		tx := src.NoiseVector(8000, 100)
		rx := dsp.Add(dsp.FilterSame(tx, residual), src.NoiseVector(8000, 1e-9))
		est, err := sic.EstimateFIR(tx, rx, 24, 0)
		if err != nil {
			b.Fatal(err)
		}
		clean := sic.NewDigitalCanceller(est).Process(tx, rx)
		total = sic.MeasureCancellationDB(dsp.Power(tx), dsp.Power(clean))
	}
	b.ReportMetric(analog, "analogDB")
	b.ReportMetric(total, "totalDB")
}

// BenchmarkFig12OverallGains regenerates the headline experiment: median
// FF gains vs AP-only (paper: 3x) and vs half-duplex (paper: 2.3x), and
// the edge gain (paper: 4x).
func BenchmarkFig12OverallGains(b *testing.B) {
	var r testbed.Fig12Result
	for i := 0; i < b.N; i++ {
		r = testbed.RunFig12(benchConfig(1))
	}
	b.ReportMetric(r.MedianFFvsAP, "medianFFvsAPx")
	b.ReportMetric(r.MedianFFvsHD, "medianFFvsHDx")
	b.ReportMetric(r.Edge20thFFvsAP, "edgeFFvsAPx")
}

// BenchmarkFig13AbsoluteThroughput regenerates the absolute-throughput
// CDFs (paper: dead spots at zero AP-only; FF lifts the distribution).
func BenchmarkFig13AbsoluteThroughput(b *testing.B) {
	var r testbed.Fig13Result
	for i := 0; i < b.N; i++ {
		r = testbed.RunFig13(benchConfig(1))
	}
	b.ReportMetric(r.APOnly.Median(), "apOnlyMedianMbps")
	b.ReportMetric(r.HalfDuplex.Median(), "hdMedianMbps")
	b.ReportMetric(r.FF.Median(), "ffMedianMbps")
}

// BenchmarkFig14SISOGains regenerates the SISO experiment (paper: 1.6x
// median, ~4x tail — pure constructive SNR gain).
func BenchmarkFig14SISOGains(b *testing.B) {
	var r testbed.Fig12Result
	for i := 0; i < b.N; i++ {
		r = testbed.RunFig14(benchConfig(1))
	}
	b.ReportMetric(r.MedianFFvsHD, "medianFFvsHDx")
	b.ReportMetric(r.Edge20thFFvsAP, "edgeFFvsAPx")
}

// BenchmarkFig15GainsByClass regenerates the class-bucketed gains
// (paper: 4x low/low, 1.7x medium/low, ~1.15x high/high).
func BenchmarkFig15GainsByClass(b *testing.B) {
	var r testbed.Fig15Result
	for i := 0; i < b.N; i++ {
		r = testbed.RunFig15(benchConfig(1))
	}
	b.ReportMetric(r.Medians[phyrate.LowSNRLowRank], "lowLowMedianx")
	b.ReportMetric(r.Medians[phyrate.MediumSNRLowRank], "medLowMedianx")
	b.ReportMetric(r.Medians[phyrate.HighSNRHighRank], "highHighMedianx")
}

// BenchmarkFig16LatencySweep regenerates the latency sweep (paper: gains
// collapse beyond ~300 ns, worse than no relay past ~400 ns).
func BenchmarkFig16LatencySweep(b *testing.B) {
	var pts []testbed.Fig16Point
	for i := 0; i < b.N; i++ {
		pts = testbed.RunFig16(benchConfig(1), []float64{100, 300, 450})
	}
	b.ReportMetric(pts[0].MedianGain, "gain@100ns")
	b.ReportMetric(pts[1].MedianGain, "gain@300ns")
	b.ReportMetric(pts[2].MedianGain, "gain@450ns")
}

// BenchmarkFig17AmplifyOnly regenerates the no-CNF ablation (paper:
// median gain drops to ~1.5x; tail gains survive).
func BenchmarkFig17AmplifyOnly(b *testing.B) {
	var r testbed.Fig12Result
	for i := 0; i < b.N; i++ {
		r = testbed.RunFig17(benchConfig(1))
	}
	b.ReportMetric(r.MedianFFvsAP, "medianAFvsAPx")
	b.ReportMetric(r.Edge20thFFvsAP, "edgeAFvsAPx")
}

// BenchmarkFig18CancellationSweep regenerates the cancellation sweep
// (paper: median gain shrinks with reduced cancellation).
func BenchmarkFig18CancellationSweep(b *testing.B) {
	var pts []testbed.Fig18Point
	for i := 0; i < b.N; i++ {
		pts = testbed.RunFig18(benchConfig(1), []float64{70, 90, 110})
	}
	b.ReportMetric(pts[0].MedianGain, "gain@70dB")
	b.ReportMetric(pts[1].MedianGain, "gain@90dB")
	b.ReportMetric(pts[2].MedianGain, "gain@110dB")
}

// BenchmarkFig21Fingerprinting regenerates the identification study
// (paper: ~5% false negatives, ~zero false positives, aggressive mode).
func BenchmarkFig21Fingerprinting(b *testing.B) {
	var fp, fn float64
	for i := 0; i < b.N; i++ {
		cfg := ident.DefaultStudyConfig(ident.AggressiveThreshold)
		cfg.NLocations = 30
		cfg.PacketsPerClient = 300
		res := ident.RunStudy(rng.New(int64(i+1)), cfg)
		fp = stats.NewCDF(res.FalsePositivePct).Mean()
		fn = stats.NewCDF(res.FalseNegativePct).Median()
	}
	b.ReportMetric(fp, "falsePosPct")
	b.ReportMetric(fn, "falseNegMedianPct")
}

// BenchmarkFig6CPTolerance is the Fig 4/6 micro-mechanism: relayed-path
// delay inside vs outside the cyclic prefix, reported as the useful-energy
// weight at 300 and 800 ns of extra delay.
func BenchmarkFig6CPTolerance(b *testing.B) {
	cfg := benchConfig(1)
	tb := testbed.New(floorplan.Scenarios()[0], cfg)
	var in, out float64
	for i := 0; i < b.N; i++ {
		inW, _ := tb.CPOverlap(0, 300e-9)
		outW, _ := tb.CPOverlap(0, 800e-9)
		in, out = inW, outW
	}
	b.ReportMetric(in, "weight@300ns")
	b.ReportMetric(out, "weight@800ns")
}

// BenchmarkFig7FeedbackStability is the Fig 7 micro-mechanism: the relay
// loop's output power when amplification is below vs above isolation.
func BenchmarkFig7FeedbackStability(b *testing.B) {
	src := rng.New(1)
	// A short window with amplification 1 dB above isolation keeps the
	// divergence finite (~1 dB/sample growth) while showing it clearly.
	in := src.NoiseVector(200, 1)
	si := []complex128{0, 0.01} // 40 dB isolation
	var stable, unstable float64
	for i := 0; i < b.N; i++ {
		rs := relay.New(relay.Config{
			SampleRate: 20e6, AmplificationDB: 34,
			PipelineDelaySamples: 1, SIChannelTaps: si,
		})
		stable = dsp.PowerDB(rs.Process(in)[150:])
		ru := relay.New(relay.Config{
			SampleRate: 20e6, AmplificationDB: 41,
			PipelineDelaySamples: 1, SIChannelTaps: si,
		})
		unstable = dsp.PowerDB(ru.Process(in)[150:])
	}
	b.ReportMetric(stable, "stableOutDB")
	b.ReportMetric(unstable, "unstableOutDB")
}

// BenchmarkSICFilter measures the 120-tap digital canceller on an
// 8192-sample block: the per-sample direct form (Push) and the block path
// (the planar SoA kernel, bit-exact with Push).
func BenchmarkSICFilter(b *testing.B) {
	const nTaps, nSamp = 120, 8192
	src := rng.New(1)
	taps := make([]complex128, nTaps)
	for i := range taps {
		taps[i] = src.ComplexGaussian(1.0 / nTaps)
	}
	tx := src.NoiseVector(nSamp, 1)
	rx := src.NoiseVector(nSamp, 1)
	out := make([]complex128, nSamp)
	b.Run("push", func(b *testing.B) {
		d := sic.NewDigitalCanceller(taps)
		b.ReportAllocs()
		b.SetBytes(nSamp * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range rx {
				out[j] = d.Push(tx[j], rx[j])
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		d := sic.NewDigitalCanceller(taps)
		d.ProcessInto(out, tx, rx) // warm scratch buffers
		b.ReportAllocs()
		b.SetBytes(nSamp * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.ProcessInto(out, tx, rx)
		}
	})
}

// BenchmarkFFRelayProcess measures the SISO relay's full forward chain —
// SI feedback, cancellation, CFO removal/restoration, CNF filter, amp,
// pipeline delay — on 4096-sample blocks with zero per-call allocation.
func BenchmarkFFRelayProcess(b *testing.B) {
	src := rng.New(2)
	si := make([]complex128, 8)
	for i := range si {
		si[i] = src.ComplexGaussian(1e-7)
	}
	pre := make([]complex128, 16)
	for i := range pre {
		pre[i] = src.ComplexGaussian(1.0 / 16)
	}
	in := src.NoiseVector(4096, 1)
	out := make([]complex128, len(in))
	r := relay.New(relay.Config{
		SampleRate:           20e6,
		AmplificationDB:      20,
		PipelineDelaySamples: 2,
		PreFilterTaps:        pre,
		CFOHz:                1500,
		SIChannelTaps:        si,
		CancelTaps:           si,
	})
	r.ProcessInto(out, in) // warm scratch buffers
	b.ReportAllocs()
	b.SetBytes(int64(len(in)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ProcessInto(out, in)
	}
}

// BenchmarkSessionChains drives 8 independent 20 MHz session chains the
// way the relay daemon runs them: each session sweep chain
// (pipeline.SessionTaps into pipeline.NewForwardStages: 24-tap cancel,
// CFO remove/restore, 16-tap CNF, the sweep's 10 dB amplify) is
// instrumented and advanced by its own Process call on a 4096-sample
// block, its canceller re-armed per block. One op is one round over all
// 8 sessions; the allocation gate requires 0 allocs/op.
func BenchmarkSessionChains(b *testing.B) {
	const (
		nSessions = 8
		blockLen  = 4096
	)
	o := pipeline.NewObs(obs.New())
	chains := make([]*pipeline.Chain, nSessions)
	cancels := make([]*pipeline.CancelStage, nSessions)
	txs := make([][]complex128, nSessions)
	rxs := make([][]complex128, nSessions)
	blocks := make([][]complex128, nSessions)
	for i := range chains {
		src := rng.New(rng.ItemSeed(7, i))
		canc, pre := pipeline.SessionTaps(src, 24, 16)
		stages, cancel := pipeline.NewForwardStages(canc, pre,
			2*math.Pi*pipeline.SessionCFOHz/pipeline.SessionSampleRateHz, pipeline.SessionAmpDB)
		chains[i], cancels[i] = pipeline.NewChain("sessions", stages...), cancel
		chains[i].Instrument(o, 0)
		txs[i] = src.NoiseVector(blockLen, 1)
		rxs[i] = src.NoiseVector(blockLen, 1)
		blocks[i] = make([]complex128, blockLen)
	}
	round := func() {
		for s, ch := range chains {
			copy(blocks[s], rxs[s])
			cancels[s].SetReference(txs[s])
			ch.Process(blocks[s])
		}
	}
	round() // warm scratch buffers
	b.ReportAllocs()
	b.SetBytes(int64(nSessions * blockLen * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
