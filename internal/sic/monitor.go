package sic

import (
	"math"
	"math/cmplx"

	"fastforward/internal/impair"
	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

// DefaultRetuneThresholdDB is how far the achieved analog cancellation may
// erode below the tuned baseline before the monitor demands a re-tune.
// 10 dB mirrors the hardware practice of re-running the Sec 4.3 tuning
// loop only when the residual visibly rises out of the digital stage's
// comfortable range, not on every fade.
const DefaultRetuneThresholdDB = 10.0

// Monitor watches the achieved analog-stage cancellation against the
// baseline of the most recent tune (its TuneStats.QuantizedDB) and decides
// when the canceller must re-tune: the SI channel drifts as the
// environment moves, and a static attenuator setting slides off the null.
type Monitor struct {
	// ThresholdDB is the erosion that triggers a re-tune; <= 0 uses
	// DefaultRetuneThresholdDB.
	ThresholdDB float64

	// Retunes counts re-tunes the monitor has demanded (Retuned calls
	// after the first).
	Retunes int
	// Erosions counts observations that breached the threshold.
	Erosions int
	// WorstErosionDB is the largest baseline-minus-achieved seen.
	WorstErosionDB float64

	baselineDB   float64
	haveBaseline bool
}

// NewMonitor returns a monitor with the given erosion threshold
// (<= 0 selects DefaultRetuneThresholdDB).
func NewMonitor(thresholdDB float64) *Monitor {
	return &Monitor{ThresholdDB: thresholdDB}
}

func (m *Monitor) threshold() float64 {
	if m.ThresholdDB > 0 {
		return m.ThresholdDB
	}
	return DefaultRetuneThresholdDB
}

// Retuned records the outcome of a tune as the new baseline. The first
// call is the initial tune; subsequent calls count as re-tunes.
func (m *Monitor) Retuned(stats TuneStats) {
	if m.haveBaseline {
		m.Retunes++
	}
	m.baselineDB = stats.QuantizedDB
	m.haveBaseline = true
}

// BaselineDB returns the cancellation of the tune the monitor is watching
// against (0 before the first Retuned call).
func (m *Monitor) BaselineDB() float64 { return m.baselineDB }

// Observe feeds one achieved-cancellation measurement and reports whether
// the erosion past the threshold demands a re-tune. Without a baseline it
// always demands one.
func (m *Monitor) Observe(achievedDB float64) bool {
	if !m.haveBaseline {
		return true
	}
	erosion := m.baselineDB - achievedDB
	if erosion > m.WorstErosionDB {
		m.WorstErosionDB = erosion
	}
	if erosion > m.threshold() {
		m.Erosions++
		return true
	}
	return false
}

// Drift returns an aged copy of the SI channel: each path's complex gain
// decorrelates to correlation rho with an innovation matching its own
// power (the same Gauss-Markov model impair.AgeCSI and the cnf staleness
// study use), while path delays stay fixed — the geometry is static over
// coherence-time scales, it is the reflection coefficients and phases that
// wander. rho >= 1 returns the channel unchanged.
func (c *SIChannel) Drift(src *rng.Source, rho float64) *SIChannel {
	if rho >= 1 {
		return c
	}
	innov := 1 - rho*rho
	out := &SIChannel{Paths: make([]SIPath, len(c.Paths))}
	for i, p := range c.Paths {
		g := cmplx.Rect(math.Pow(10, p.GainDB/20), p.PhaseRad)
		pw := real(g)*real(g) + imag(g)*imag(g)
		aged := complex(rho, 0)*g + src.ComplexGaussian(innov*pw)
		amp := cmplx.Abs(aged)
		if amp <= 0 {
			amp = 1e-30
		}
		out.Paths[i] = SIPath{
			DelayS:   p.DelayS,
			GainDB:   20 * math.Log10(amp),
			PhaseRad: cmplx.Phase(aged),
		}
	}
	return out
}

// DriftStep is one interval of a drift characterization: the analog
// cancellation the stale attenuator setting still achieves against the
// drifted SI channel, and whether the monitor demanded (and the chain
// performed) a re-tune at this interval.
type DriftStep struct {
	AchievedDB float64
	Retuned    bool
}

// DriftCharacterization measures one placement's cancellation under SI
// drift and front-end impairments: tune once, drift the channel interval
// by interval, re-tune only when the Monitor trips.
type DriftCharacterization struct {
	// InitialDB is the first tune's analog cancellation.
	InitialDB float64
	// Steps holds the per-interval achieved cancellation (before any
	// re-tune at that interval restores it).
	Steps []DriftStep
	// MinAchievedDB is the worst pre-retune analog cancellation seen.
	MinAchievedDB float64
	// Retunes counts monitor-demanded re-tunes.
	Retunes int
	// FloorDB is the impairment profile's cancellation floor (+Inf when
	// ideal).
	FloorDB float64
	// EffectiveTotalDB is the end-to-end cancellation: the ideal chain
	// total capped by the impairment floor, using the worst drift interval
	// for the analog stage.
	EffectiveTotalDB float64
}

// CharacterizeDrift runs cfg.Trials placements through tune → drift →
// monitor → re-tune cycles under the given impairment profile, recording
// the sic.retune/erosion metrics OBSERVABILITY.md documents. intervals is
// the number of drift steps per placement; rho is the per-interval
// Gauss-Markov correlation of the SI paths (use profile.AgingRho() to tie
// it to the profile's CSI age, or pass explicitly). reg may be nil. No
// binary calls it: it is the fixture behind the Sec 3.3 claim that drift
// erodes a static analog tuning and a monitored re-tune restores it, up
// to the impairment floor, pinned by TestCharacterizeDriftRetunesAndCaps.
func CharacterizeDrift(src *rng.Source, cfg CharacterizeConfig, profile *impair.Profile, intervals int, rho float64, reg *obs.Registry) []DriftCharacterization {
	achievedHist := reg.Histogram("sic.drift_achieved_db", "dB", obs.LinearBuckets(0, 5, 24))
	erosionHist := reg.Histogram("sic.drift_erosion_db", "dB", obs.LinearBuckets(0, 2, 16))
	effectiveHist := reg.Histogram("sic.effective_total_db", "dB", obs.LinearBuckets(0, 5, 24))
	retunes := reg.Counter("sic.retunes", "retunes")
	intervalsRun := reg.Counter("sic.drift_intervals", "intervals")

	floorDB := profile.CancellationFloorDB()
	out := make([]DriftCharacterization, 0, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		shard := obs.ShardForSeed(int64(i))
		si := NewTypicalSIChannel(src)
		a := NewAnalogCanceller(1.0)
		mon := NewMonitor(0)
		initial := a.Tune(si, cfg.BandwidthHz, cfg.NFreq)
		mon.Retuned(a.LastTune)

		dc := DriftCharacterization{
			InitialDB:     initial,
			MinAchievedDB: initial,
			FloorDB:       floorDB,
		}
		for step := 0; step < intervals; step++ {
			si = si.Drift(src, rho)
			achieved := a.CancellationDB(si, cfg.BandwidthHz, cfg.NFreq)
			st := DriftStep{AchievedDB: achieved}
			if achieved < dc.MinAchievedDB {
				dc.MinAchievedDB = achieved
			}
			if mon.Observe(achieved) {
				a.Tune(si, cfg.BandwidthHz, cfg.NFreq)
				mon.Retuned(a.LastTune)
				st.Retuned = true
				dc.Retunes++
			}
			dc.Steps = append(dc.Steps, st)
			achievedHist.Observe(shard, achieved)
			erosionHist.Observe(shard, mon.BaselineDB()-achieved)
			intervalsRun.Inc(shard)
		}
		// End-to-end: the digital stage cleans what the (worst-interval)
		// analog stage left, but the impairment floor caps the total —
		// a linear canceller cannot subtract nonlinear/time-varying error.
		idealTotal := dc.MinAchievedDB + (MaxCancellationDB - initial)
		if idealTotal > MaxCancellationDB {
			idealTotal = MaxCancellationDB
		}
		dc.EffectiveTotalDB = profile.EffectiveCancellationDB(idealTotal)
		effectiveHist.Observe(shard, dc.EffectiveTotalDB)
		retunes.Add(shard, uint64(dc.Retunes))
		out = append(out, dc)
	}
	return out
}
