package pipeline

import (
	"math"

	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

// This file answers a deployment-shaped question: how many concurrent
// full-duplex sessions can one core carry in real time?
// A session is the forward relay chain of the paper's design — digital
// cancellation at the Sec 3.3 canceller length (24 taps,
// sic.DefaultCharacterizeConfig), CFO removal, the 16-tap CNF
// pre-filter, CFO restoration, and the relay amplifier — fed 20 MHz of
// complex baseband. Real time means one round — all N session chains
// processed in turn, the way the relay daemon runs them — finishes
// within the air-time of one block (BlockSamples/SessionSampleRateHz).
// RunSessionSweep binary-searches the largest N that holds the deadline
// and publishes it as the pipeline.sessions_per_core gauge.

const (
	// SessionSampleRateHz is every sweep session's sample rate: the
	// paper's 20 MHz WiFi channel.
	SessionSampleRateHz = 20e6
	// SessionCFOHz is the carrier-frequency offset each sweep session
	// corrects.
	SessionCFOHz = 1500
	// SessionAmpDB is the sweep sessions' fixed relay amplification.
	SessionAmpDB = 10
)

// SessionConfig shapes the multi-session real-time sweep.
type SessionConfig struct {
	// BlockSamples is the scheduling quantum (default 4096).
	BlockSamples int
	// CancelTaps / CNFTaps size the two filters (defaults 24 / 16 — the
	// repo's Sec 3.3 digital-canceller and CNF pre-filter lengths).
	CancelTaps int
	CNFTaps    int
	// Seed makes the synthetic taps and waveforms reproducible.
	Seed int64
	// WarmSweeps run untimed before MeasureSweeps timed rounds; the
	// fastest timed round is the probe's cost estimate (see
	// measureSessions for why minimum, not mean).
	WarmSweeps    int
	MeasureSweeps int
	// MaxSessions caps the search (default 4096).
	MaxSessions int
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.BlockSamples == 0 {
		c.BlockSamples = 4096
	}
	if c.CancelTaps == 0 {
		c.CancelTaps = 24
	}
	if c.CNFTaps == 0 {
		c.CNFTaps = 16
	}
	if c.WarmSweeps == 0 {
		c.WarmSweeps = 2
	}
	if c.MeasureSweeps == 0 {
		c.MeasureSweeps = 64
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 4096
	}
	return c
}

// SessionProbe records one point the search visited.
type SessionProbe struct {
	Sessions   int
	NSPerSweep float64
	RealTime   bool
}

// SessionResult is the outcome of one RunSessionSweep.
type SessionResult struct {
	Config SessionConfig
	// Sessions is the largest session count whose round met the block
	// deadline (0 when even one session misses it).
	Sessions int
	// DeadlineNS is the per-round real-time budget: the air time of one
	// block at the configured sample rate.
	DeadlineNS float64
	// NSPerSweep / NSPerSession are the fastest measured round at the
	// winning count (at 1 session when Sessions is 0, for diagnosis).
	NSPerSweep   float64
	NSPerSession float64
	// Probes lists every count the doubling probe and binary search
	// timed, in visit order.
	Probes []SessionProbe
}

// SessionTaps draws one synthetic session's filter taps from src:
// Rayleigh taps with exponential power decay, first 0.94^k for the
// canceller's self-interference estimate, then 0.8^k for the CNF
// pre-filter — the repo's standard synthetic session model, shared by
// the relay daemon and the session sweep.
func SessionTaps(src *rng.Source, cancelTaps, cnfTaps int) (cancel, pre []complex128) {
	cancel = make([]complex128, cancelTaps)
	for k := range cancel {
		cancel[k] = src.RayleighTap(math.Pow(0.94, float64(k)))
	}
	pre = make([]complex128, cnfTaps)
	for k := range pre {
		pre[k] = src.RayleighTap(math.Pow(0.8, float64(k)))
	}
	return cancel, pre
}

// measureSessions times rounds over n sessions and returns the fastest
// round in nanoseconds. A round is what a daemon on one core does within
// one block deadline: every session's block is refilled from its
// template, its canceller re-armed, and its chain run with Process, one
// session after another. The minimum — not the mean — estimates the
// machine's steady-state cost: every round does identical work, so
// anything above the minimum is scheduler or neighbor interference,
// which a deployment would remove with core pinning rather than budget
// for. Refilling from the templates keeps each round identical work on
// well-scaled samples (no denormal drift across rounds).
func measureSessions(cfg SessionConfig, n int, po *Obs) float64 {
	chains := make([]*Chain, n)
	cancels := make([]*CancelStage, n)
	txT := make([][]complex128, n)
	rxT := make([][]complex128, n)
	blocks := make([][]complex128, n)
	for i := 0; i < n; i++ {
		src := rng.New(rng.ItemSeed(cfg.Seed, i))
		canc, pre := SessionTaps(src, cfg.CancelTaps, cfg.CNFTaps)
		stages, cancel := NewForwardStages(canc, pre, 2*math.Pi*SessionCFOHz/SessionSampleRateHz, SessionAmpDB)
		// The chain is named sessions, so its stage timers are
		// pipeline.sessions.<stage>.
		chains[i], cancels[i] = NewChain("sessions", stages...), cancel
		chains[i].Instrument(po, 0)
		txT[i] = src.NoiseVector(cfg.BlockSamples, 1)
		rxT[i] = src.NoiseVector(cfg.BlockSamples, 1)
		blocks[i] = make([]complex128, cfg.BlockSamples)
	}
	round := func() {
		for i, ch := range chains {
			copy(blocks[i], rxT[i])
			cancels[i].SetReference(txT[i])
			ch.Process(blocks[i])
		}
		if po != nil {
			po.BatchSweeps.Inc(0)
			po.BatchSessions.Add(0, uint64(n))
		}
	}
	for k := 0; k < cfg.WarmSweeps; k++ {
		round()
	}
	best := math.Inf(1)
	for k := 0; k < cfg.MeasureSweeps; k++ {
		start := obs.NowNanos()
		round()
		if ns := float64(obs.NowNanos() - start); ns < best {
			best = ns
		}
	}
	return best
}

// RunSessionSweep finds the largest session count whose round meets the
// real-time deadline on the calling core: a doubling probe until the
// first miss, then binary search on the bracket. When reg is non-nil the
// winning count is published as the pipeline.sessions_per_core gauge,
// the session chains record the usual pipeline.* metrics, and every
// round counts one pipeline.batch.sweeps and n pipeline.batch.sessions.
func RunSessionSweep(reg *obs.Registry, cfg SessionConfig) SessionResult {
	cfg = cfg.withDefaults()
	po := NewObs(reg)
	res := SessionResult{
		Config:     cfg,
		DeadlineNS: float64(cfg.BlockSamples) / SessionSampleRateHz * 1e9,
	}
	probe := func(n int) bool {
		ns := measureSessions(cfg, n, po)
		ok := ns <= res.DeadlineNS
		res.Probes = append(res.Probes, SessionProbe{Sessions: n, NSPerSweep: ns, RealTime: ok})
		if ok && n > res.Sessions {
			res.Sessions = n
			res.NSPerSweep = ns
		}
		if n == 1 && res.Sessions == 0 {
			res.NSPerSweep = ns
		}
		return ok
	}
	// Doubling probe: find the first miss.
	lo, hi := 0, 1
	for hi <= cfg.MaxSessions && probe(hi) {
		lo = hi
		hi *= 2
	}
	if lo == 0 {
		// Even one session misses the deadline.
		res.NSPerSession = res.NSPerSweep
		publishSessions(reg, res.Sessions)
		return res
	}
	if hi > cfg.MaxSessions {
		hi = cfg.MaxSessions + 1
	}
	// Binary search (lo meets, hi misses): largest n meeting the deadline.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.NSPerSession = res.NSPerSweep / float64(res.Sessions)
	publishSessions(reg, res.Sessions)
	return res
}

func publishSessions(reg *obs.Registry, n int) {
	if reg == nil {
		return
	}
	reg.Gauge("pipeline.sessions_per_core", "sessions").Set(float64(n))
}
