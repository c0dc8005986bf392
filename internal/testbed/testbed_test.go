package testbed

import (
	"math"
	"testing"

	"fastforward/internal/floorplan"
	"fastforward/internal/obs"
	"fastforward/internal/phyrate"
)

// coarse returns a fast evaluation config for tests.
func coarse(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.GridSpacingM = 2.5
	cfg.CarrierStride = 8
	return cfg
}

func TestClientGridExcludesDevices(t *testing.T) {
	sc := floorplan.Scenarios()[0]
	tb := New(sc, coarse(1))
	for _, pt := range tb.ClientGrid() {
		if pt.Dist(sc.AP) < 1.0 || pt.Dist(sc.Relay) < 1.0 {
			t.Fatalf("grid point %v too close to AP/relay", pt)
		}
	}
	if len(tb.ClientGrid()) < 10 {
		t.Fatal("grid too sparse")
	}
}

func TestISIWeight(t *testing.T) {
	tb := New(floorplan.Scenarios()[0], coarse(1))
	// Within CP: full weight, no ISI.
	u, f := tb.CPOverlap(0, 300e-9)
	if u != 1 || f != 0 {
		t.Errorf("300ns: %v %v", u, f)
	}
	u, f = tb.CPOverlap(0, 400e-9)
	if u != 1 || f != 0 {
		t.Errorf("exactly CP: %v %v", u, f)
	}
	// Beyond CP: weight decays, ISI appears.
	u1, f1 := tb.CPOverlap(0, 1000e-9)
	if u1 >= 1 || f1 <= 0 {
		t.Errorf("1000ns should be degraded: %v %v", u1, f1)
	}
	// Way beyond: total loss.
	u2, f2 := tb.CPOverlap(0, 4000e-9)
	if u2 != 0 || f2 != 1 {
		t.Errorf("4000ns should be pure interference: %v %v", u2, f2)
	}
	// Monotone between.
	if u1 <= u2 {
		t.Error("weight must decay with delay")
	}
}

func TestEvaluationOrdering(t *testing.T) {
	// Per-scheme sanity at every location: HD >= AP-only (it falls back to
	// direct), rates non-negative and below the 2x2 PHY maximum.
	cfg := coarse(2)
	tb := New(floorplan.Scenarios()[0], cfg)
	maxRate := RateForSNR(tb.Params(), 100, 2)
	for _, ev := range tb.RunAll() {
		if ev.HalfDuplexMbps < ev.APOnlyMbps-1e-9 {
			t.Fatalf("HD (%v) below AP-only (%v) at %v", ev.HalfDuplexMbps, ev.APOnlyMbps, ev.Location)
		}
		for _, r := range []float64{ev.APOnlyMbps, ev.HalfDuplexMbps, ev.RelayMbps} {
			if r < 0 || r > maxRate+1e-9 {
				t.Fatalf("rate %v out of range at %v", r, ev.Location)
			}
		}
	}
}

func TestFFHelpsWeakClients(t *testing.T) {
	// The core paper result, per-location: clients with poor AP-only SNR
	// should see large relay gains; strong clients shouldn't be hurt.
	cfg := coarse(3)
	tb := New(floorplan.Scenarios()[0], cfg)
	helpedWeak, weak := 0, 0
	for _, ev := range tb.RunAll() {
		if ev.APOnlySNRdB < 10 {
			weak++
			if ev.RelayMbps > 1.5*ev.APOnlyMbps {
				helpedWeak++
			}
		}
		if ev.RelayMbps < 0.8*ev.APOnlyMbps {
			t.Errorf("relay hurt client at %v: %v -> %v Mbps",
				ev.Location, ev.APOnlyMbps, ev.RelayMbps)
		}
	}
	if weak == 0 {
		t.Fatal("test environment has no weak clients")
	}
	if helpedWeak < weak*3/4 {
		t.Errorf("only %d/%d weak clients helped substantially", helpedWeak, weak)
	}
}

func TestFig12HeadlineNumbers(t *testing.T) {
	// Shape check against the paper: FF beats AP-only by ~2-3x median
	// (paper: 3x), beats half-duplex (paper: 2.3x, bounded by ~2x airtime
	// in our calibration), and rescues the coverage edge by ~4x (paper 4x).
	r := RunFig12(coarse(1))
	if r.MedianFFvsAP < 1.6 || r.MedianFFvsAP > 3.5 {
		t.Errorf("median FF/AP %v outside the paper's regime", r.MedianFFvsAP)
	}
	if r.MedianFFvsHD < 1.2 || r.MedianFFvsHD > 2.5 {
		t.Errorf("median FF/HD %v outside the paper's regime", r.MedianFFvsHD)
	}
	if r.Edge20thFFvsAP < 3.0 {
		t.Errorf("edge gain %v, want >= 3 (paper: 4x)", r.Edge20thFFvsAP)
	}
	if r.FFGain.N() < 50 {
		t.Error("too few evaluations")
	}
}

func TestFig13DeadSpots(t *testing.T) {
	// Fig 13's qualitative content: AP-only has zero-throughput dead
	// spots; FF lifts the whole distribution.
	r := RunFig13(coarse(1))
	if r.APOnly.Percentile(5) > 0 {
		t.Error("expected AP-only dead spots at the 5th percentile")
	}
	if r.FF.Median() <= r.APOnly.Median() {
		t.Errorf("FF median %v should beat AP-only %v", r.FF.Median(), r.APOnly.Median())
	}
	if r.FF.Median() <= r.HalfDuplex.Median() {
		t.Errorf("FF median %v should beat HD %v", r.FF.Median(), r.HalfDuplex.Median())
	}
	if r.FF.Percentile(10) <= r.APOnly.Percentile(10) {
		t.Error("FF should lift the lower tail")
	}
}

func TestFig14SISOGains(t *testing.T) {
	// SISO: gains come from constructive SNR combination alone.
	r := RunFig14(coarse(1))
	if r.MedianFFvsHD < 1.1 || r.MedianFFvsHD > 2.0 {
		t.Errorf("SISO median FF/HD %v outside regime (paper: 1.6x)", r.MedianFFvsHD)
	}
	if r.Edge20thFFvsAP < 2.5 {
		t.Errorf("SISO edge gain %v, want >= 2.5 (paper: ~4x tail)", r.Edge20thFFvsAP)
	}
}

func TestFig15ClassOrdering(t *testing.T) {
	// Fig 15: gains ordered low/low > medium/low > high/high, with
	// magnitudes near the paper's 4x / 1.7x / 1.15x.
	r := RunFig15(coarse(1))
	low := r.Medians[phyrate.LowSNRLowRank]
	med := r.Medians[phyrate.MediumSNRLowRank]
	high := r.Medians[phyrate.HighSNRHighRank]
	if !(low > med && med > high) {
		t.Errorf("class ordering violated: %v %v %v", low, med, high)
	}
	if low < 2.5 {
		t.Errorf("low/low median %v, want >= 2.5 (paper: 4x)", low)
	}
	if med < 1.3 || med > 2.3 {
		t.Errorf("medium/low median %v, want ~1.7", med)
	}
	if high < 1.0 || high > 1.4 {
		t.Errorf("high/high median %v, want ~1.15", high)
	}
}

func TestFig16LatencyCollapse(t *testing.T) {
	// Fig 16: gains flat below the CP budget, collapsing beyond ~300 ns,
	// worse than no relay at 450+ ns.
	pts := RunFig16(coarse(1), []float64{100, 300, 450, 600})
	if pts[0].MedianGain < 1.2 {
		t.Errorf("100ns gain %v too low", pts[0].MedianGain)
	}
	if pts[1].MedianGain >= pts[0].MedianGain {
		t.Errorf("gain should start dropping by 300ns: %v vs %v",
			pts[1].MedianGain, pts[0].MedianGain)
	}
	if pts[2].MedianGain > 1.05 {
		t.Errorf("450ns gain %v should be near or below 1", pts[2].MedianGain)
	}
	if pts[3].MedianGain >= 1.0 {
		t.Errorf("600ns gain %v should be worse than no relay", pts[3].MedianGain)
	}
}

func TestFig17AmplifyOnlyWorse(t *testing.T) {
	// Fig 17: blind amplification loses most of the median gain but keeps
	// tail gains for edge clients.
	ff := RunFig12(coarse(1))
	af := RunFig17(coarse(1))
	if af.MedianFFvsAP >= ff.MedianFFvsAP {
		t.Errorf("amplify-only median %v should be below FF %v",
			af.MedianFFvsAP, ff.MedianFFvsAP)
	}
	if af.Edge20thFFvsAP < 1.5 {
		t.Errorf("amplify-only should retain tail gains, got %v", af.Edge20thFFvsAP)
	}
}

func TestFig18CancellationMonotone(t *testing.T) {
	// Fig 18: more cancellation, more gain (monotone up to the plateau).
	pts := RunFig18(coarse(1), []float64{70, 85, 110})
	if !(pts[0].MedianGain <= pts[1].MedianGain && pts[1].MedianGain <= pts[2].MedianGain) {
		t.Errorf("gain not monotone in cancellation: %v", pts)
	}
	if pts[2].MedianGain <= pts[0].MedianGain {
		t.Error("cancellation sweep should span a visible range")
	}
}

func TestHeatmapFig1Fig2(t *testing.T) {
	// Figs 1-2: the home scenario should show (a) most of the home in the
	// poor-SNR regime AP-only, (b) a large SNR lift with FF, (c) 2-stream
	// coverage expanding substantially.
	cfg := coarse(1)
	cfg.GridSpacingM = 1.5
	cells := Heatmap(floorplan.Scenarios()[0], cfg)
	if len(cells) < 30 {
		t.Fatal("heatmap too sparse")
	}
	s := Summarize(cells)
	if s.MedianAPOnlySNRdB > 20 {
		t.Errorf("AP-only median SNR %v too high for the Fig 1 regime", s.MedianAPOnlySNRdB)
	}
	if s.MedianFFSNRdB < s.MedianAPOnlySNRdB+8 {
		t.Errorf("FF SNR lift too small: %v -> %v", s.MedianAPOnlySNRdB, s.MedianFFSNRdB)
	}
	if s.FracFFStream2 < s.FracAPOnlyTwoStreams+0.2 {
		t.Errorf("2-stream coverage gain too small: %v -> %v",
			s.FracAPOnlyTwoStreams, s.FracFFStream2)
	}
	// Renderings don't crash and have the right dimensions.
	for _, r := range []string{
		RenderSNR(floorplan.Scenarios()[0], cells, false),
		RenderSNR(floorplan.Scenarios()[0], cells, true),
		RenderStreams(floorplan.Scenarios()[0], cells, false),
		RenderStreams(floorplan.Scenarios()[0], cells, true),
	} {
		if len(r) == 0 {
			t.Error("empty rendering")
		}
	}
}

func TestSynthesizedFilterCostIsSmall(t *testing.T) {
	// Using the implementable (4-tap digital + analog) CNF filter instead
	// of the ideal one should cost little median throughput.
	ideal := coarse(1)
	ideal.SynthesizedFilter = false
	ideal.MIMO = false
	impl := coarse(1)
	impl.SynthesizedFilter = true
	impl.MIMO = false
	ri := RunFig12(ideal)
	rs := RunFig12(impl)
	if rs.MedianFFvsAP < 0.85*ri.MedianFFvsAP {
		t.Errorf("synthesized filter loses too much: %v vs ideal %v",
			rs.MedianFFvsAP, ri.MedianFFvsAP)
	}
}

func TestDeterminism(t *testing.T) {
	a := RunFig12(coarse(7))
	b := RunFig12(coarse(7))
	if a.MedianFFvsAP != b.MedianFFvsAP || a.MedianFFvsHD != b.MedianFFvsHD {
		t.Error("same seed must give identical results")
	}
}

func TestRelativeGainsSkipsDeadBaseline(t *testing.T) {
	evals := []Evaluation{
		{APOnlyMbps: 10, HalfDuplexMbps: 20, RelayMbps: 40},
		{APOnlyMbps: 0, HalfDuplexMbps: 0, RelayMbps: 40}, // no baseline
	}
	gains := RelativeGains(evals)
	if len(gains) != 1 {
		t.Fatalf("got %d gains, want 1", len(gains))
	}
	if gains[0].FF != 2 || gains[0].APOnly != 0.5 {
		t.Errorf("gains wrong: %+v", gains[0])
	}
	if math.IsInf(gains[0].FF, 0) {
		t.Error("unexpected Inf")
	}
}

// TestNewRecordsDelayBudget reads what New records: the configured
// processing delay in whole samples into pipeline.latency_samples, and an
// overrun of the 8-sample (400 ns) CP into pipeline.budget_violations.
// The paper's 100 ns operating point fits with room to spare; Fig 16's
// 450 ns does not.
func TestNewRecordsDelayBudget(t *testing.T) {
	sc := floorplan.Scenarios()[0]
	for _, c := range []struct {
		ns                  float64
		samples, violations int
	}{
		{100, 2, 0},
		{300, 6, 0},
		{450, 9, 1},
	} {
		reg := obs.New()
		cfg := coarse(1)
		cfg.ProcessingDelayNs = c.ns
		cfg.Obs = reg
		if cp := New(sc, cfg).Params().CPLen; cp != 8 {
			t.Fatalf("CP is %d samples, want 8", cp)
		}
		lat := reg.Histogram("pipeline.latency_samples", "samples", nil)
		if lat.Count() != 1 || lat.Sum() != float64(c.samples) {
			t.Errorf("%v ns: pipeline.latency_samples has %d observations summing to %v, want one of %d",
				c.ns, lat.Count(), lat.Sum(), c.samples)
		}
		if got := reg.Counter("pipeline.budget_violations", "chains").Value(); got != uint64(c.violations) {
			t.Errorf("%v ns: pipeline.budget_violations = %d, want %d", c.ns, got, c.violations)
		}
	}
}
