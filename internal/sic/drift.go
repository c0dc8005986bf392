package sic

import (
	"math"
	"math/cmplx"

	"fastforward/internal/impair"
	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

// retuneThresholdDB is how far the achieved analog cancellation may erode
// below the last tune's before CharacterizeDrift re-tunes. 10 dB mirrors
// the hardware practice of re-running the Sec 4.3 tuning loop only when
// the residual visibly rises out of the digital stage's comfortable
// range, not on every fade.
const retuneThresholdDB = 10.0

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
// drifted SI channel, and whether its erosion below the last tune
// triggered a re-tune at this interval.
type DriftStep struct {
	AchievedDB float64
	Retuned    bool
}

// DriftCharacterization measures one placement's cancellation under SI
// drift and front-end impairments: tune once, drift the channel interval
// by interval, re-tune only when the cancellation has eroded more than
// retuneThresholdDB below the last tune's.
type DriftCharacterization struct {
	// InitialDB is the first tune's analog cancellation.
	InitialDB float64
	// Steps holds the per-interval achieved cancellation (before any
	// re-tune at that interval restores it).
	Steps []DriftStep
	// MinAchievedDB is the worst pre-retune analog cancellation seen.
	MinAchievedDB float64
	// Retunes counts erosion-triggered re-tunes.
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
// re-tune cycles under the given impairment profile (nil is ideal),
// recording the sic.drift_*, sic.retunes and sic.effective_total_db
// metrics OBSERVABILITY.md documents. intervals is the number of drift
// steps per placement; rho is the per-interval Gauss-Markov correlation
// of the SI paths. reg may be nil. It backs the Sec 3.3 claim that drift
// erodes a static analog tuning and a re-tune restores it, up to the
// impairment floor: ffsim -fig drift prints it.
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
		initial := a.Tune(si, cfg.BandwidthHz, cfg.NFreq)
		baselineDB := a.LastTune.QuantizedDB

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
			if baselineDB-achieved > retuneThresholdDB {
				a.Tune(si, cfg.BandwidthHz, cfg.NFreq)
				baselineDB = a.LastTune.QuantizedDB
				st.Retuned = true
				dc.Retunes++
			}
			dc.Steps = append(dc.Steps, st)
			achievedHist.Observe(shard, achieved)
			erosionHist.Observe(shard, baselineDB-achieved)
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
