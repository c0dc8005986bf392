package ident

import (
	"math"

	"fastforward/internal/channel"
	"fastforward/internal/dsp"
	"fastforward/internal/obs"
	"fastforward/internal/par"
	"fastforward/internal/rng"
)

// This file implements the Sec 6.1 identification study behind Fig 21:
// clients at many locations, ≥1000 packets per client over an extended
// period (modeled as slow channel drift plus per-packet estimation noise),
// measuring false-positive and false-negative rates of the uplink
// fingerprint classifier for a given threshold.

// The Fig 21 study's fixed setup: four clients per location (the
// paper's), fingerprints measured at 20 dB SNR over the 10 STF
// subcarriers, a per-packet relative channel drift of 0.008 (Gaussian,
// cumulative over the observation window), and the relay re-enrolling
// each client every 250 packets — it learns fingerprints on the fly from
// ongoing traffic (Sec 6), so the database tracks slow drift.
const (
	studyClients       = 4
	studySNRdB         = 20
	studyDriftStd      = 0.008
	studyReenrollEvery = 250
	studySubcarriers   = 10
)

// StudyConfig parameterizes the Fig 21 experiment.
type StudyConfig struct {
	// NLocations of independent client placements (the paper uses 100).
	NLocations int
	// PacketsPerClient per location (the paper uses ≥1000).
	PacketsPerClient int
	// Threshold is the classifier threshold (Aggressive/PassiveThreshold).
	Threshold float64
	// Workers bounds the sweep engine's worker pool for the per-location
	// Monte-Carlo fan-out: 1 forces the serial reference path, 0 means one
	// worker per CPU. Results are identical for every value.
	Workers int
	// Obs, when non-nil, receives the ident.* run metrics (per-location
	// classification decisions; see OBSERVABILITY.md). Recording is
	// order-independent, so metric values are identical for any Workers.
	Obs *obs.Registry
}

// DefaultStudyConfig mirrors the paper's setup.
func DefaultStudyConfig(threshold float64) StudyConfig {
	return StudyConfig{
		NLocations:       100,
		PacketsPerClient: 1000,
		Threshold:        threshold,
	}
}

// StudyResult holds per-location FP and FN percentages.
type StudyResult struct {
	// FalsePositivePct[i] is the percentage of packets at location i
	// attributed to the wrong client.
	FalsePositivePct []float64
	// FalseNegativePct[i] is the percentage of packets at location i with
	// no identification.
	FalseNegativePct []float64
}

// RunStudy executes the experiment. Determinism follows the source: each
// location gets its own stream forked serially from src up front, so the
// per-location results are independent of execution order and the
// parallel fan-out (cfg.Workers) is bit-identical to the serial path.
func RunStudy(src *rng.Source, cfg StudyConfig) StudyResult {
	res := StudyResult{
		FalsePositivePct: make([]float64, cfg.NLocations),
		FalseNegativePct: make([]float64, cfg.NLocations),
	}
	defer cfg.Obs.Stage("ident.run_study")()
	locations := cfg.Obs.Counter("ident.locations", "locations")
	packets := cfg.Obs.Counter("ident.packets", "packets")
	falsePos := cfg.Obs.Counter("ident.false_positives", "packets")
	falseNeg := cfg.Obs.Counter("ident.false_negatives", "packets")
	fpPct := cfg.Obs.Histogram("ident.fp_pct", "%", obs.LinearBuckets(0, 1, 21))
	fnPct := cfg.Obs.Histogram("ident.fn_pct", "%", obs.LinearBuckets(0, 1, 21))

	carriers := stfCarriers(studySubcarriers)
	srcs := make([]*rng.Source, cfg.NLocations)
	for i := range srcs {
		srcs[i] = src.Fork()
	}
	par.ForEach(cfg.NLocations, cfg.Workers, func(loc int) {
		src := srcs[loc]
		cls := NewClassifier(cfg.Threshold)
		// Per-client true channels and enrollment. Clients in the same
		// room see partially-correlated channels (shared dominant paths),
		// which is what makes false positives possible at loose
		// thresholds.
		shared := channel.NewRayleigh(src, 4, 0.5, 1).ResponseVector(carriers, 64)
		// Correlation varies by placement: tightly clustered clients (e.g.
		// on the same desk) share most of their propagation paths, which
		// is what produces false positives at loose thresholds.
		rho := 0.3 + 0.68*src.Float64()
		cs := complex(math.Sqrt(rho), 0)
		co := complex(math.Sqrt(1-rho), 0)
		chans := make([][]complex128, studyClients)
		for c := 0; c < studyClients; c++ {
			ch := channel.NewRayleigh(src, 4, 0.5, 1)
			own := ch.ResponseVector(carriers, 64)
			v := make([]complex128, len(own))
			for i := range v {
				v[i] = cs*shared[i] + co*own[i]
			}
			chans[c] = v
			// Enroll from a noisy measurement (the relay's DB comes from
			// real packets too).
			cls.Enroll(c, measure(src, chans[c], studySNRdB))
		}
		var fp, fn, total int
		for c := 0; c < studyClients; c++ {
			state := append([]complex128(nil), chans[c]...)
			for p := 0; p < cfg.PacketsPerClient; p++ {
				// Slow drift: random walk on the channel vector.
				for i := range state {
					state[i] += src.ComplexGaussian(studyDriftStd * studyDriftStd)
				}
				if p%studyReenrollEvery == studyReenrollEvery-1 {
					cls.Enroll(c, measure(src, state, studySNRdB))
				}
				got, ok := cls.Classify(measure(src, state, studySNRdB))
				total++
				switch {
				case !ok:
					fn++
				case got != c:
					fp++
				}
			}
		}
		res.FalsePositivePct[loc] = 100 * float64(fp) / float64(total)
		res.FalseNegativePct[loc] = 100 * float64(fn) / float64(total)

		shard := obs.ShardForSeed(int64(loc))
		locations.Inc(shard)
		packets.Add(shard, uint64(total))
		falsePos.Add(shard, uint64(fp))
		falseNeg.Add(shard, uint64(fn))
		fpPct.Observe(shard, res.FalsePositivePct[loc])
		fnPct.Observe(shard, res.FalseNegativePct[loc])
	})
	return res
}

// STFCarriers returns the n measured STF subcarrier indices in the order
// the study samples them (the fleet layer fingerprints clients on the
// same comb so its identifiability matches RunStudy's). n above 12 is
// clamped; the paper's technique uses 10.
func STFCarriers(n int) []int { return stfCarriers(n) }

// Measure returns a noisy fingerprint of the channel vector at the given
// measurement SNR: per-subcarrier complex Gaussian noise scaled so the
// mean subcarrier power sits snrDB above the noise variance.
func Measure(src *rng.Source, ch []complex128, snrDB float64) Fingerprint {
	return measure(src, ch, snrDB)
}

// measure returns a noisy fingerprint of the channel vector at the given
// measurement SNR.
func measure(src *rng.Source, ch []complex128, snrDB float64) Fingerprint {
	var sig float64
	for _, v := range ch {
		sig += real(v)*real(v) + imag(v)*imag(v)
	}
	sig /= float64(len(ch))
	noiseVar := sig / dsp.Linear(snrDB)
	fp := make(Fingerprint, len(ch))
	for i, v := range ch {
		fp[i] = v + src.ComplexGaussian(noiseVar)
	}
	return fp
}

// stfCarriers returns the n measured STF subcarrier indices; the STF
// occupies every 4th subcarrier (±4, ±8, …, ±24), of which the paper's
// technique uses 10.
func stfCarriers(n int) []int {
	all := []int{-24, -20, -16, -12, -8, 8, 12, 16, 20, 24, -4, 4}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
