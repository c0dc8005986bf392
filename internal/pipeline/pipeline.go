// Package pipeline is the streaming block-DSP layer: the relay, SIC, and
// CNF sample paths are expressed as chains of composable stages instead of
// hand-written per-sample loops. A Stage transforms one block of complex
// baseband samples at a time while carrying its own streaming state, so
// the same chain produces bit-identical output whether it is driven one
// sample at a time (the relay's feedback loop) or in large blocks (the
// characterization and benchmark paths).
//
// Two properties are contractual:
//
//   - Determinism. Every stage computes the same bits however its input
//     is segmented, and the filter stages' planar block kernel computes
//     the exact arithmetic, in the exact order, of the per-sample direct
//     form — so golden vectors and the -workers bit-identity guarantee
//     hold. The CFO stage rotates by a resynced phasor recurrence (within
//     5e-14 of exact rotation by its own phase). The one opt-in
//     approximate path is FIRStage.EnableFFT (overlap-save, held to 1e-9
//     of the direct form).
//
//   - Latency accounting. Every stage reports LatencySamples and a Chain
//     sums them, making the paper's ≤100 ns processing-delay claim (and
//     the OFDM CP budget it must fit inside, Fig 16) a first-class,
//     monitored quantity: Chain.CheckBudget records the end-to-end latency
//     and counts budget violations through internal/obs.
//
// Chains emit pipeline.* counters/histograms (see OBSERVABILITY.md) and
// per-stage wall-clock timers named pipeline.<chain>.<stage>. Metric
// recording is sharded and order-independent; timers are wall-clock
// diagnostics and live in the manifest's timings section.
package pipeline

import (
	"fastforward/internal/obs"
)

// Stage is one streaming block transform. Process may transform the block
// in place and must return the output block (same length as the input);
// the returned slice is only valid until the next call. State carries
// across calls: feeding a signal in blocks of any size yields the same
// output as one whole-signal call. Reset clears streaming state (not
// configuration). LatencySamples is the stage's buffering delay: 0 for
// causal tap-0 filters, d for a delay line.
type Stage interface {
	Name() string
	Process(block []complex128) []complex128
	Reset()
	LatencySamples() int
}

// Obs bundles the pipeline.* metric handles chains record into. A nil
// *Obs (or one built from a nil registry) disables instrumentation at the
// cost of one branch. All handles aggregate order-independently, so
// instrumented chains stay bit-identical for any worker count when the
// shard is derived from the work item (obs.ShardForSeed).
type Obs struct {
	// Blocks counts Process calls; Samples counts samples through them.
	Blocks  *obs.Counter
	Samples *obs.Counter
	// FFTBlocks counts blocks that took a stage's overlap-save FFT fast
	// path rather than the direct form.
	FFTBlocks *obs.Counter
	// SOABlocks counts blocks that took a filter stage's planar SoA block
	// kernel rather than the per-sample direct form.
	SOABlocks *obs.Counter
	// Latency distributes chain end-to-end latencies seen by CheckBudget.
	Latency *obs.Histogram
	// Violations counts CheckBudget calls whose chain exceeded the budget.
	Violations *obs.Counter
	// BatchSweeps counts Batch.ProcessAll stage sweeps; BatchSessions
	// counts the session-blocks those sweeps advanced.
	BatchSweeps   *obs.Counter
	BatchSessions *obs.Counter

	reg *obs.Registry
}

// NewObs creates the pipeline metric handles on reg. Returns nil on a nil
// registry; every consumer is nil-safe.
func NewObs(reg *obs.Registry) *Obs {
	if reg == nil {
		return nil
	}
	return &Obs{
		Blocks:        reg.Counter("pipeline.blocks", "blocks"),
		Samples:       reg.Counter("pipeline.samples", "samples"),
		FFTBlocks:     reg.Counter("pipeline.fft_blocks", "blocks"),
		SOABlocks:     reg.Counter("pipeline.soa_blocks", "blocks"),
		Latency:       reg.Histogram("pipeline.latency_samples", "samples", obs.LinearBuckets(0, 2, 17)),
		Violations:    reg.Counter("pipeline.budget_violations", "chains"),
		BatchSweeps:   reg.Counter("pipeline.batch.sweeps", "sweeps"),
		BatchSessions: reg.Counter("pipeline.batch.sessions", "blocks"),
		reg:           reg,
	}
}

// fftObservable is implemented by stages with an FFT fast path, so
// Chain.Instrument can hand them the FFTBlocks counter.
type fftObservable interface {
	setFFTObs(c *obs.Counter, shard int)
}

// soaObservable is implemented by stages with a planar SoA block path.
type soaObservable interface {
	setSoAObs(c *obs.Counter, shard int)
}

// Chain composes stages into one Stage: the block flows through the
// stages in order and latencies add. A Chain is itself a Stage, so chains
// nest.
type Chain struct {
	name   string
	stages []Stage
	o      *Obs
	shard  int
	// timers[i] times stages[i]; non-nil only when instrumented with an
	// enabled registry.
	timers []*obs.StageTimer
}

// NewChain builds a chain over the given stages.
func NewChain(name string, stages ...Stage) *Chain {
	return &Chain{name: name, stages: stages}
}

// Name returns the chain name.
func (c *Chain) Name() string { return c.name }

// Stages returns the chain's stages (shared, not a copy).
func (c *Chain) Stages() []Stage { return c.stages }

// LatencySamples sums the stages' latencies: the chain's end-to-end
// buffering delay in samples.
func (c *Chain) LatencySamples() int {
	total := 0
	for _, st := range c.stages {
		total += st.LatencySamples()
	}
	return total
}

// Instrument attaches pipeline metrics: block/sample counters on the
// given shard, the FFT and SoA block-path counters on capable stages, and
// one wall-clock timer per stage named pipeline.<chain>.<stage>. Nil o (or
// an o from a nil registry) detaches.
func (c *Chain) Instrument(o *Obs, shard int) {
	c.o = o
	c.shard = shard
	c.timers = nil
	for _, st := range c.stages {
		if fo, ok := st.(fftObservable); ok {
			if o != nil {
				fo.setFFTObs(o.FFTBlocks, shard)
			} else {
				fo.setFFTObs(nil, 0)
			}
		}
		if so, ok := st.(soaObservable); ok {
			if o != nil {
				so.setSoAObs(o.SOABlocks, shard)
			} else {
				so.setSoAObs(nil, 0)
			}
		}
	}
	if o == nil || o.reg == nil {
		return
	}
	c.timers = make([]*obs.StageTimer, len(c.stages))
	for i, st := range c.stages {
		c.timers[i] = o.reg.Timer("pipeline." + c.name + "." + st.Name())
	}
}

// Process runs the block through every stage in order.
func (c *Chain) Process(block []complex128) []complex128 {
	if c.o != nil {
		c.o.Blocks.Inc(c.shard)
		c.o.Samples.Add(c.shard, uint64(len(block)))
	}
	if c.timers != nil {
		for i, st := range c.stages {
			start := obs.NowNanos()
			block = st.Process(block)
			c.timers[i].AddNS(obs.NowNanos() - start)
		}
		return block
	}
	for _, st := range c.stages {
		block = st.Process(block)
	}
	return block
}

// Reset clears every stage's streaming state.
func (c *Chain) Reset() {
	for _, st := range c.stages {
		st.Reset()
	}
}

// CheckBudget holds the chain's end-to-end latency against a budget in
// samples (typically the OFDM CP length, or the configured processing
// delay) and reports whether it fits. When instrumented it records the
// latency into pipeline.latency_samples and counts overruns in
// pipeline.budget_violations — the check is soft because the latency
// experiment (Fig 16) deliberately sweeps past the CP.
func (c *Chain) CheckBudget(budgetSamples int) bool {
	lat := c.LatencySamples()
	if c.o != nil {
		c.o.Latency.Observe(c.shard, float64(lat))
		if lat > budgetSamples {
			c.o.Violations.Inc(c.shard)
		}
	}
	return lat <= budgetSamples
}
