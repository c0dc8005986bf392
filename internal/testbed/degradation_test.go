package testbed

import (
	"math"
	"reflect"
	"testing"

	"fastforward/internal/floorplan"
	"fastforward/internal/impair"
	"fastforward/internal/obs"
)

func degradationConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.MIMO = false
	cfg.GridSpacingM = 3.0
	cfg.CarrierStride = 13
	return cfg
}

// TestDegradationSweepBoundedMonotone is the acceptance gate for the
// fault-injection layer: sweeping the severity ladder must degrade both
// the effective cancellation and the relay throughput monotonically, keep
// the loss bounded (the relay under the harshest profile still forwards —
// no collapse, no feedback instability), and clamp amplification so the
// stability headroom never closes below the margin.
func TestDegradationSweepBoundedMonotone(t *testing.T) {
	cfg := degradationConfig(3)
	pts := RunDegradation(floorplan.Scenarios()[0], cfg, impair.SeverityLadder())
	if len(pts) != 5 {
		t.Fatalf("severity ladder has %d rungs", len(pts))
	}
	for _, p := range pts {
		t.Logf("%-10s effC=%6.1f relay=%6.2f hd=%6.2f gain=%.2f maxAmp=%5.2f minHead=%6.1f miss=%d stale=%d blind=%d",
			p.Profile, p.EffectiveCancellationDB, p.MeanRelayMbps, p.MeanHalfDuplexMbps,
			p.MedianGainVsHD, p.MaxAmpDB, p.MinHeadroomDB, p.SoundingMissRounds,
			p.StaleFilterClients, p.BlindFallbacks)
	}

	ideal, harsh := pts[0], pts[len(pts)-1]
	if ideal.EffectiveCancellationDB != cfg.CancellationDB {
		t.Errorf("ideal rung effC %.1f != budget %.1f", ideal.EffectiveCancellationDB, cfg.CancellationDB)
	}
	for i := 1; i < len(pts); i++ {
		prev, cur := pts[i-1], pts[i]
		// Cancellation degrades strictly monotonically down the ladder.
		if !(cur.EffectiveCancellationDB < prev.EffectiveCancellationDB) {
			t.Errorf("effC not strictly decreasing: %s %.2f -> %s %.2f",
				prev.Profile, prev.EffectiveCancellationDB, cur.Profile, cur.EffectiveCancellationDB)
		}
		// Relay throughput loss is monotone to within 1 Mbps (~3%): deep
		// rungs converge to the "relay barely contributes" asymptote and
		// per-rung CSI-aging draws wobble deterministically around it.
		if cur.MeanRelayMbps > prev.MeanRelayMbps+1.0 {
			t.Errorf("relay rate not monotone: %s %.3f -> %s %.3f",
				prev.Profile, prev.MeanRelayMbps, cur.Profile, cur.MeanRelayMbps)
		}
		// Amplification clamps down as cancellation erodes, never up.
		if cur.MaxAmpDB > prev.MaxAmpDB+1e-9 {
			t.Errorf("amp not clamping: %s max %.3f -> %s max %.3f",
				prev.Profile, prev.MaxAmpDB, cur.Profile, cur.MaxAmpDB)
		}
	}
	for _, p := range pts {
		// No feedback instability on any rung: amplification stays below
		// the effective cancellation by at least the stability margin.
		if p.MinHeadroomDB < 3-1e-9 {
			t.Errorf("%s: stability headroom %.2f dB below the 3 dB margin", p.Profile, p.MinHeadroomDB)
		}
		if p.MaxAmpDB > p.EffectiveCancellationDB-3+1e-9 {
			t.Errorf("%s: amp %.2f dB exceeds effC−3 = %.2f", p.Profile, p.MaxAmpDB, p.EffectiveCancellationDB-3)
		}
	}
	// Bounded degradation: the harshest rung still carries traffic, the
	// baselines are untouched by relay-side faults, and faults actually
	// happened (the ladder exercises the fallback machinery).
	if harsh.MeanRelayMbps <= 0 {
		t.Error("harsh rung collapsed to zero relay throughput")
	}
	if math.Abs(harsh.MeanAPOnlyMbps-ideal.MeanAPOnlyMbps) > 1e-9 ||
		math.Abs(harsh.MeanHalfDuplexMbps-ideal.MeanHalfDuplexMbps) > 1e-9 {
		t.Error("relay impairments perturbed the AP-only / half-duplex baselines")
	}
	if harsh.SoundingMissRounds == 0 || harsh.StaleFilterClients == 0 {
		t.Error("harsh profile injected no sounding faults")
	}
	if ideal.SoundingMissRounds != 0 || ideal.BlindFallbacks != 0 {
		t.Error("ideal rung recorded impairment faults")
	}
}

// TestDegradationWorkersBitIdentical asserts the ISSUE's determinism
// criterion in-process: an impaired sweep — waveform seeds, CSI aging,
// sounding faults, metrics — is bit-identical between the serial path and
// a parallel pool.
func TestDegradationWorkersBitIdentical(t *testing.T) {
	p, _ := impair.ByName("severe")
	run := func(workers int) ([]Evaluation, map[string]obs.MetricSnapshot) {
		reg := obs.New()
		cfg := degradationConfig(7)
		cfg.Workers = workers
		cfg.Impair = &p
		cfg.Obs = reg
		evs := New(floorplan.Scenarios()[0], cfg).RunAll()
		return evs, reg.Snapshot().Metrics
	}
	e1, m1 := run(1)
	e4, m4 := run(4)
	if !reflect.DeepEqual(e1, e4) {
		t.Error("impaired evaluations differ between workers=1 and workers=4")
	}
	if !reflect.DeepEqual(m1, m4) {
		t.Error("impaired sweep metrics differ between workers=1 and workers=4")
	}
	if c := m1["impair.sounding_miss"]; c.Value == nil || *c.Value == 0 {
		t.Error("severe profile drew no sounding misses — fault path not exercised")
	}
	if h := m1["impair.effective_cancellation_db"]; h.Count == 0 {
		t.Error("effective-cancellation metric not recorded under impairment")
	}
	// MIMO path determinism too (aged matrices draw from the same
	// location-derived stream).
	runM := func(workers int) []Evaluation {
		cfg := degradationConfig(9)
		cfg.MIMO = true
		cfg.Workers = workers
		cfg.Impair = &p
		return New(floorplan.Scenarios()[1], cfg).RunAll()
	}
	if !reflect.DeepEqual(runM(1), runM(4)) {
		t.Error("impaired MIMO evaluations differ across worker counts")
	}
}

// TestImpairZeroProfileBitIdentical: threading a zero (or ideal-named)
// profile through the testbed must not move a single bit relative to no
// profile at all — the wiring costs nothing when off.
func TestImpairZeroProfileBitIdentical(t *testing.T) {
	run := func(p *impair.Profile) []Evaluation {
		cfg := degradationConfig(5)
		cfg.Impair = p
		return New(floorplan.Scenarios()[0], cfg).RunAll()
	}
	base := run(nil)
	zero := run(&impair.Profile{Name: "ideal"})
	if !reflect.DeepEqual(base, zero) {
		t.Error("zero impairment profile changed evaluation results")
	}
}

// TestHoldFilterPolicy runs the sounding-fault policy over fixed round
// outcomes: a filter survives exactly maxStaleIntervals misses, the next
// miss leaves the relay blind, and one OK round restores a fresh filter.
func TestHoldFilterPolicy(t *testing.T) {
	const o, x = true, false
	misses := func(n int) []bool { return make([]bool, n) }
	for _, tc := range []struct {
		name   string
		rounds []bool
		stale  int
		valid  bool
	}{
		{"never sounded", misses(3), 0, false},
		{"fresh", []bool{x, o}, 0, true},
		{"held at the limit", append([]bool{o}, misses(maxStaleIntervals)...), maxStaleIntervals, true},
		{"dropped past the limit", append([]bool{o}, misses(maxStaleIntervals+1)...), maxStaleIntervals + 1, false},
		{"blind stays blind", append([]bool{o}, misses(maxStaleIntervals+3)...), maxStaleIntervals + 1, false},
		{"recovered after blind", append(append([]bool{o}, misses(maxStaleIntervals+1)...), o), 0, true},
		{"aged after recovery", append(append([]bool{o}, misses(maxStaleIntervals+1)...), o, x, x), 2, true},
	} {
		stale, valid := 0, false
		for _, ok := range tc.rounds {
			stale, valid = holdFilter(ok, stale, valid)
		}
		if stale != tc.stale || valid != tc.valid {
			t.Errorf("%s: stale %d valid %v, want %d %v", tc.name, stale, valid, tc.stale, tc.valid)
		}
	}
}
