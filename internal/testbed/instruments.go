package testbed

import (
	"fastforward/internal/obs"
	"fastforward/internal/phyrate"
	"fastforward/internal/pipeline"
	"fastforward/internal/relay"
)

// instruments bundles the metric handles the per-client evaluation records
// into. With a nil registry (observability off) every handle is nil and
// every record call is a no-op branch — the sweep hot path pays nothing.
// All handles aggregate order-independently (integer counts, fixed-point
// sums), so sweeps stay bit-identical for any worker count; see
// OBSERVABILITY.md for each metric's unit and paper anchor.
type instruments struct {
	cells     *obs.Counter
	deadSpots *obs.Counter
	classes   [3]*obs.Counter

	apSNR     *obs.Histogram
	apRate    *obs.Histogram
	hdRate    *obs.Histogram
	ffRate    *obs.Histogram
	apStreams *obs.Histogram
	ffStreams *obs.Histogram

	ampDB     *obs.Histogram
	ampBounds [4]*obs.Counter
	headroom  *obs.Histogram

	coherence *obs.Histogram
	tapEnergy *obs.Histogram
	fitError  *obs.Histogram

	effCancel     *obs.Histogram
	csiRho        *obs.Histogram
	soundOK       *obs.Counter
	soundMiss     *obs.Counter
	staleFilter   *obs.Counter
	blindFallback *obs.Counter

	// pipe carries the pipeline.* handles New records the configured
	// processing delay into (nil when observability is off).
	pipe *pipeline.Obs
}

func newInstruments(r *obs.Registry) instruments {
	ins := instruments{
		cells:     r.Counter("testbed.cells", "cells"),
		deadSpots: r.Counter("testbed.dead_spots", "cells"),
		apSNR:     r.Histogram("testbed.ap_snr_db", "dB", obs.LinearBuckets(-10, 5, 12)),
		apRate:    r.Histogram("testbed.ap_rate_mbps", "Mbps", obs.LinearBuckets(0, 30, 11)),
		hdRate:    r.Histogram("testbed.hd_rate_mbps", "Mbps", obs.LinearBuckets(0, 30, 11)),
		ffRate:    r.Histogram("testbed.relay_rate_mbps", "Mbps", obs.LinearBuckets(0, 30, 11)),
		apStreams: r.Histogram("testbed.ap_streams", "streams", []float64{0, 1, 2}),
		ffStreams: r.Histogram("testbed.relay_streams", "streams", []float64{0, 1, 2}),
		ampDB:     r.Histogram("relay.amp_db", "dB", obs.LinearBuckets(0, 10, 13)),
		headroom:  r.Histogram("relay.stability_headroom_db", "dB", obs.LinearBuckets(0, 10, 13)),
		coherence: r.Histogram("cnf.coherence_gain_db", "dB", obs.LinearBuckets(-10, 2.5, 21)),
		tapEnergy: r.Histogram("cnf.tap_energy_db", "dB", obs.LinearBuckets(-20, 10, 16)),
		fitError:  r.Histogram("cnf.fit_error_db", "dB", obs.LinearBuckets(-60, 5, 14)),

		// Impairment metrics: observed only when Config.Impair is active
		// (ideal runs carry them at zero).
		effCancel:     r.Histogram("impair.effective_cancellation_db", "dB", obs.LinearBuckets(0, 10, 13)),
		csiRho:        r.Histogram("impair.csi_rho", "rho", obs.LinearBuckets(0, 0.1, 11)),
		soundOK:       r.Counter("impair.sounding_ok", "rounds"),
		soundMiss:     r.Counter("impair.sounding_miss", "rounds"),
		staleFilter:   r.Counter("impair.stale_filter_clients", "cells"),
		blindFallback: r.Counter("impair.blind_fallback_clients", "cells"),

		pipe: pipeline.NewObs(r),
	}
	for b := relay.AmpBoundCancellation; b <= relay.AmpBoundFloor; b++ {
		ins.ampBounds[b] = r.Counter("relay.amp_bound."+b.String(), "cells")
	}
	for c, slug := range classSlugs {
		ins.classes[c] = r.Counter("testbed.class."+slug, "cells")
	}
	return ins
}

// classSlugs maps phyrate.ClientClass to metric-name-safe slugs.
var classSlugs = map[phyrate.ClientClass]string{
	phyrate.LowSNRLowRank:    "low_snr_low_rank",
	phyrate.MediumSNRLowRank: "medium_snr_low_rank",
	phyrate.HighSNRHighRank:  "high_snr_high_rank",
}

// recordEvaluation writes one client's outcome into the metric shards.
func (ins *instruments) recordEvaluation(shard int, ev *Evaluation, amp relay.AmpDecision) {
	ins.cells.Inc(shard)
	ins.apSNR.Observe(shard, ev.APOnlySNRdB)
	ins.apRate.Observe(shard, ev.APOnlyMbps)
	ins.hdRate.Observe(shard, ev.HalfDuplexMbps)
	ins.ffRate.Observe(shard, ev.RelayMbps)
	ins.apStreams.Observe(shard, float64(ev.APOnlyStreams))
	ins.ffStreams.Observe(shard, float64(ev.RelayStreams))
	if ev.APOnlyMbps <= 0 {
		ins.deadSpots.Inc(shard)
	}
	if c, ok := ins.classIndex(ev.Class); ok {
		c.Inc(shard)
	}
	ins.ampDB.Observe(shard, amp.AmpDB)
	ins.headroom.Observe(shard, amp.StabilityHeadroomDB)
	if int(amp.Bound) < len(ins.ampBounds) {
		ins.ampBounds[amp.Bound].Inc(shard)
	}
}

func (ins *instruments) classIndex(c phyrate.ClientClass) (*obs.Counter, bool) {
	if int(c) < 0 || int(c) >= len(ins.classes) {
		return nil, false
	}
	return ins.classes[c], true
}
