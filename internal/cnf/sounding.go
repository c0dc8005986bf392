package cnf

import (
	"math"

	"fastforward/internal/rng"
)

// Sec 4.2: the relay cannot measure the source→destination channel itself;
// it learns it by snooping explicit channel feedback — the 802.11n/ac VHT
// sounding exchange, which the paper makes the AP run every 50 ms. The
// channels the relay *can* measure directly (source→relay from any AP
// packet, relay→destination from snooped ACKs) refresh at packet rate.
//
// Between refreshes the channels drift, so the constructive filter goes
// stale. StalenessStudy quantifies the resulting SNR-gain loss as a
// function of the sounding interval — the knob the paper fixes at 50 ms.

// soundingSubcarriers is the number of subcarriers the staleness study
// evaluates.
const soundingSubcarriers = 13

// SoundingConfig parameterizes the staleness study.
type SoundingConfig struct {
	// CoherenceMs is the channel's 50% coherence time in milliseconds
	// (indoor pedestrian-speed channels: a few hundred ms).
	CoherenceMs float64
	// SoundingIntervalMs is the refresh period of the direct-channel
	// estimate the relay snoops (the paper: 50 ms).
	SoundingIntervalMs float64
	// AmpDB is the relay amplification.
	AmpDB float64
	// Budget is the link budget for SNR accounting.
	Budget LinkBudget
}

// StalenessResult reports the SNR gain achieved with fresh vs stale
// filters, averaged over the sounding interval.
type StalenessResult struct {
	// FreshGainDB is the constructive SNR gain with a per-instant filter.
	FreshGainDB float64
	// StaleGainDB is the gain with the filter computed at the start of
	// each sounding interval and held.
	StaleGainDB float64
	// LossDB = FreshGainDB - StaleGainDB.
	LossDB float64
}

// StalenessStudy simulates Gauss-Markov channel drift and measures the
// constructive-gain loss from holding the CNF filter for a sounding
// interval. Determinism follows the source. It backs the Sec 4.2 claim
// that a 50 ms sounding interval costs little gain: ffsim -fig staleness
// prints it, and TestStalenessPaper50msIsCheap pins it.
func StalenessStudy(src *rng.Source, cfg SoundingConfig) StalenessResult {
	const n = soundingSubcarriers
	// Gauss-Markov per-step correlation: step = 1 ms; rho chosen so the
	// autocorrelation halves after CoherenceMs steps.
	steps := int(cfg.SoundingIntervalMs)
	if steps < 1 {
		steps = 1
	}
	rho := 1.0
	if cfg.CoherenceMs > 0 {
		rho = math.Pow(0.5, 1/cfg.CoherenceMs)
	}
	innov := 1 - rho*rho

	// Initial channels: direct weak, hops strong.
	hsd := make([]complex128, n)
	hsr := make([]complex128, n)
	hrd := make([]complex128, n)
	for i := 0; i < n; i++ {
		hsd[i] = src.ComplexGaussian(1e-9)
		hsr[i] = src.ComplexGaussian(1e-6)
		hrd[i] = src.ComplexGaussian(1e-7)
	}
	baseSNR := func(hc []complex128) float64 {
		return MeanSNRdB(DestSNRdB(hsd, hsr, hrd, hc, cfg.Budget))
	}
	zero := make([]complex128, n)

	var freshAcc, staleAcc, directAcc float64
	const intervals = 20
	for iv := 0; iv < intervals; iv++ {
		held := DesiredSISO(hsd, hsr, hrd, cfg.AmpDB)
		for s := 0; s < steps; s++ {
			// Drift all three channels.
			drift(src, hsd, rho, innov, 1e-9)
			drift(src, hsr, rho, innov, 1e-6)
			drift(src, hrd, rho, innov, 1e-7)
			fresh := DesiredSISO(hsd, hsr, hrd, cfg.AmpDB)
			freshAcc += baseSNR(fresh)
			staleAcc += baseSNR(held)
			directAcc += baseSNR(zero)
		}
	}
	total := float64(intervals * steps)
	fresh := freshAcc/total - directAcc/total
	stale := staleAcc/total - directAcc/total
	return StalenessResult{
		FreshGainDB: fresh,
		StaleGainDB: stale,
		LossDB:      fresh - stale,
	}
}

// drift applies one Gauss-Markov step with stationary power p.
func drift(src *rng.Source, h []complex128, rho, innov, p float64) {
	r := complex(rho, 0)
	for i := range h {
		h[i] = r*h[i] + src.ComplexGaussian(innov*p)
	}
}
