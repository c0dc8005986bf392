package sic

import (
	"math"
	"sync"
	"testing"

	"fastforward/internal/impair"
	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

func TestSIChannelDrift(t *testing.T) {
	src := rng.New(5)
	si := NewTypicalSIChannel(src)
	// rho >= 1 is the identity (same object).
	if si.Drift(src, 1) != si {
		t.Error("rho=1 should return the channel unchanged")
	}
	aged := si.Drift(rng.New(6), 0.9)
	if len(aged.Paths) != len(si.Paths) {
		t.Fatal("drift changed the path count")
	}
	for i := range aged.Paths {
		if aged.Paths[i].DelayS != si.Paths[i].DelayS {
			t.Errorf("path %d delay drifted — geometry must stay fixed", i)
		}
		if aged.Paths[i].GainDB == si.Paths[i].GainDB {
			t.Errorf("path %d gain unchanged under drift", i)
		}
	}
	// Deterministic.
	again := si.Drift(rng.New(6), 0.9)
	for i := range aged.Paths {
		if aged.Paths[i] != again.Paths[i] {
			t.Fatal("drift not deterministic")
		}
	}
	// Statistical sanity: over many drifts the mean power gain of the
	// dominant path is preserved within a factor of 2.
	var pw, pw0 float64
	n := 500
	for k := 0; k < n; k++ {
		d := si.Drift(rng.New(int64(100+k)), 0.8)
		pw += math.Pow(10, d.Paths[0].GainDB/10)
	}
	pw0 = math.Pow(10, si.Paths[0].GainDB/10)
	if r := pw / float64(n) / pw0; r < 0.5 || r > 2 {
		t.Errorf("dominant-path mean power ratio %v after drift, want ≈1", r)
	}
}

func TestCharacterizeDriftRetunesAndCaps(t *testing.T) {
	if testing.Short() {
		t.Skip("drift characterization tunes repeatedly; slow")
	}
	cfg := DefaultCharacterizeConfig(1)
	// A coarser tuning band keeps the repeated re-tunes affordable; the
	// re-tune logic under test is insensitive to NFreq.
	cfg.NFreq = 8
	cfg.Samples = 2000
	p, _ := impair.ByName("severe")
	reg := obs.New()
	// Strong per-interval drift (rho 0.6) must erode a static tuning
	// quickly and trigger a re-tune at least once over 3 intervals.
	out := CharacterizeDrift(rng.New(11), cfg, &p, 3, 0.6, reg)
	if len(out) != 1 {
		t.Fatalf("want 1 characterization, got %d", len(out))
	}
	dc := out[0]
	if dc.InitialDB < 40 {
		t.Errorf("initial tune %.1f dB unexpectedly poor", dc.InitialDB)
	}
	if dc.MinAchievedDB >= dc.InitialDB {
		t.Error("drift never eroded cancellation")
	}
	if dc.Retunes == 0 {
		t.Error("no re-tune under rho=0.6 drift")
	}
	floor := p.CancellationFloorDB()
	if dc.FloorDB != floor {
		t.Errorf("FloorDB %v != profile floor %v", dc.FloorDB, floor)
	}
	if dc.EffectiveTotalDB > floor {
		t.Errorf("effective total %.1f exceeds impairment floor %.1f",
			dc.EffectiveTotalDB, floor)
	}
	// Deterministic re-run.
	out2 := CharacterizeDrift(rng.New(11), cfg, &p, 3, 0.6, nil)
	if out2[0].EffectiveTotalDB != dc.EffectiveTotalDB || out2[0].Retunes != dc.Retunes {
		t.Error("drift characterization not deterministic")
	}
}

// Concurrent placements recording into one shared registry — the pattern
// cmd/ffsim's parallel sweep uses. Run under -race (make race includes
// internal/sic) this exercises the obs sharded accumulators against the
// tuner's compute loops.
func TestConcurrentCharacterizeSharedRegistry(t *testing.T) {
	reg := obs.New()
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := DefaultCharacterizeConfig(1)
			cfg.NFreq = 4
			cfg.Samples = 1000
			Characterize(rng.New(rng.ItemSeed(77, w)), cfg, reg)
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	m, ok := snap.Metrics["sic.tune_placements"]
	if !ok || m.Value == nil || *m.Value != workers {
		t.Errorf("registry placements metric = %+v, want %d", m, workers)
	}
}
