package pipeline

import (
	"math"

	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

// This file answers the deployment-shaped question behind the batch
// executor: how many concurrent full-duplex sessions can one core carry
// in real time? A session is the forward relay chain of the paper's
// design — digital cancellation at the Sec 3.3 canceller length (24
// taps, sic.DefaultCharacterizeConfig), CFO removal, the 16-tap CNF
// pre-filter, CFO restoration, and the relay amplifier — fed 20 MHz of
// complex baseband. Real time means one batched stage sweep over all N
// sessions finishes within the air-time of one block
// (BlockSamples/SampleRateHz). RunSessionSweep binary-searches the
// largest N that holds the deadline and publishes it as the
// pipeline.sessions_per_core gauge.

// SessionConfig shapes the multi-session real-time sweep.
type SessionConfig struct {
	// SampleRateHz is the per-session sample rate (default 20e6, the
	// paper's 20 MHz WiFi channel).
	SampleRateHz float64
	// BlockSamples is the scheduling quantum (default 4096).
	BlockSamples int
	// CancelTaps / CNFTaps size the two filters (defaults 24 / 16 — the
	// repo's Sec 3.3 digital-canceller and CNF pre-filter lengths).
	CancelTaps int
	CNFTaps    int
	// CFOHz is the carrier-frequency offset each session corrects
	// (default 1.5 kHz).
	CFOHz float64
	// Seed makes the synthetic taps and waveforms reproducible.
	Seed int64
	// WarmSweeps run untimed before MeasureSweeps timed sweeps; the
	// fastest timed sweep is the probe's cost estimate (see
	// measureSessions for why minimum, not mean).
	WarmSweeps    int
	MeasureSweeps int
	// MaxSessions caps the search (default 4096).
	MaxSessions int
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.SampleRateHz == 0 {
		c.SampleRateHz = 20e6
	}
	if c.BlockSamples == 0 {
		c.BlockSamples = 4096
	}
	if c.CancelTaps == 0 {
		c.CancelTaps = 24
	}
	if c.CNFTaps == 0 {
		c.CNFTaps = 16
	}
	if c.CFOHz == 0 {
		c.CFOHz = 1500
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
	// Sessions is the largest session count whose batched sweep met the
	// block deadline (0 when even one session misses it).
	Sessions int
	// DeadlineNS is the per-sweep real-time budget: the air time of one
	// block at the configured sample rate.
	DeadlineNS float64
	// NSPerSweep / NSPerSession are the fastest measured sweep at the
	// winning count (at 1 session when Sessions is 0, for diagnosis).
	NSPerSweep   float64
	NSPerSession float64
	// Probes lists every count the doubling probe and binary search
	// timed, in visit order.
	Probes []SessionProbe
}

// SessionChainSpec shapes one relay session's forward chain: the Sec 3.3
// digital canceller, CFO removal, the CNF pre-filter, CFO restoration,
// and the relay amplifier. The session sweep and the relay daemon build
// their per-session chains from the same spec so a daemon session is the
// single-session pipeline path, stage for stage.
type SessionChainSpec struct {
	// CancelTaps / CNFTaps size the two filters; both must be positive.
	CancelTaps int
	CNFTaps    int
	// CFOStepRad is the per-sample CFO rotation 2π·CFOHz/SampleRateHz.
	CFOStepRad float64
	// AmpGain is the relay amplifier's complex amplitude gain (a power
	// amplification of A dB is complex(10^(A/20), 0)).
	AmpGain complex128
}

// SessionStageNames lists the stage names of every NewSessionChain chain
// in sweep order — the layout a dynamic Batch hosting session chains is
// built over.
func SessionStageNames() []string {
	return []string{"cancel", "cfo_remove", "cnf_pre", "cfo_restore", "amp"}
}

// NewSessionChain builds one session's forward chain with synthetic
// Rayleigh taps drawn from src (exponential power decay: 0.94^k for the
// canceller's self-interference estimate, 0.8^k for the CNF pre-filter —
// the repo's standard synthetic session model). The cancel stage is
// returned separately because its reference must be re-armed every
// block.
func NewSessionChain(spec SessionChainSpec, src *rng.Source) (*Chain, *CancelStage) {
	si := make([]complex128, spec.CancelTaps)
	for k := range si {
		si[k] = src.RayleighTap(math.Pow(0.94, float64(k)))
	}
	pre := make([]complex128, spec.CNFTaps)
	for k := range pre {
		pre[k] = src.RayleighTap(math.Pow(0.8, float64(k)))
	}
	cancel := NewCancelStage("cancel", si)
	ch := NewChain("session",
		cancel,
		NewCFOStage("cfo_remove", -spec.CFOStepRad),
		NewFIRStage("cnf_pre", pre),
		NewCFOStage("cfo_restore", spec.CFOStepRad),
		NewGainStage("amp", spec.AmpGain),
	)
	return ch, cancel
}

// newSessionChain adapts the sweep config to the shared session spec
// (the sweep's amplifier models a fixed 10 dB relay gain).
func newSessionChain(cfg SessionConfig, src *rng.Source) (*Chain, *CancelStage) {
	return NewSessionChain(SessionChainSpec{
		CancelTaps: cfg.CancelTaps,
		CNFTaps:    cfg.CNFTaps,
		CFOStepRad: 2 * math.Pi * cfg.CFOHz / cfg.SampleRateHz,
		AmpGain:    complex(math.Sqrt(10), 0),
	}, src)
}

// measureSessions times batched sweeps over n sessions and returns the
// fastest sweep in nanoseconds. The minimum — not the mean — estimates
// the machine's steady-state cost: every sweep does identical work, so
// anything above the minimum is scheduler or neighbor interference,
// which a deployment would remove with core pinning rather than budget
// for. Blocks are refilled from per-session templates before every
// sweep, so each sweep really is identical work on well-scaled samples
// (no denormal drift across sweeps).
func measureSessions(cfg SessionConfig, n int, po *Obs) float64 {
	chains := make([]*Chain, n)
	cancels := make([]*CancelStage, n)
	txT := make([][]complex128, n)
	rxT := make([][]complex128, n)
	for i := 0; i < n; i++ {
		src := rng.New(rng.ItemSeed(cfg.Seed, i))
		chains[i], cancels[i] = newSessionChain(cfg, src)
		txT[i] = src.NoiseVector(cfg.BlockSamples, 1)
		rxT[i] = src.NoiseVector(cfg.BlockSamples, 1)
	}
	b := NewBatch("sessions", chains...)
	b.Instrument(po, 0)
	var pool BlockPool
	blocks := make([][]complex128, n)
	sweep := func() {
		for i := range blocks {
			blocks[i] = pool.Get(cfg.BlockSamples)
			copy(blocks[i], rxT[i])
			cancels[i].SetReference(txT[i])
		}
		b.ProcessAll(blocks)
		for i := range blocks {
			pool.Put(blocks[i])
			blocks[i] = nil
		}
	}
	for k := 0; k < cfg.WarmSweeps; k++ {
		sweep()
	}
	best := math.Inf(1)
	for k := 0; k < cfg.MeasureSweeps; k++ {
		start := obs.NowNanos()
		sweep()
		if ns := float64(obs.NowNanos() - start); ns < best {
			best = ns
		}
	}
	return best
}

// RunSessionSweep finds the largest session count whose batched sweep
// meets the real-time deadline on the calling core: a doubling probe
// until the first miss, then binary search on the bracket. When reg is
// non-nil the winning count is published as the
// pipeline.sessions_per_core gauge and the sweep chains record the
// usual pipeline.* metrics.
func RunSessionSweep(reg *obs.Registry, cfg SessionConfig) SessionResult {
	cfg = cfg.withDefaults()
	po := NewObs(reg)
	res := SessionResult{
		Config:     cfg,
		DeadlineNS: float64(cfg.BlockSamples) / cfg.SampleRateHz * 1e9,
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
