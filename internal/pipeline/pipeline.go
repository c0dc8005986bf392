// Package pipeline is the streaming block-DSP layer: the relay and CNF
// sample paths are expressed as chains of composable stages instead of
// hand-written per-sample loops. A Stage transforms one block of complex
// baseband samples at a time while carrying its own streaming state, so
// the same chain produces bit-identical output whether it is driven one
// sample at a time (the relay's feedback loop) or in large blocks (the
// characterization and benchmark paths).
//
// Two properties are contractual:
//
//   - Determinism. Every stage computes the same bits however its input
//     is segmented, so golden vectors and the -workers bit-identity
//     guarantee hold. The filter stages run their blocks through
//     dsp.FIR, which picks the block path by size and is bit-exact with
//     dsp.FIR.Push on every path; there is no approximate path to arm.
//     The CFO stage rotates by a resynced phasor recurrence (within 5e-14
//     of exact rotation by its own phase).
//
//   - Configured processing delay. Stages report no latency; the relay's
//     delay is its "pipe" DelayStage, which relay.New sizes from
//     relay.Config.PipelineDelaySamples (less the one-sample handoff of
//     its feedback loop), and TestPipelineDelayExact pins the relay's
//     output as its input delayed by exactly that many samples.
//     Obs.CheckBudget records the configured delay against the OFDM CP
//     (the paper's ≤100 ns claim, Fig 16) through internal/obs.
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
// configuration).
type Stage interface {
	Name() string
	Process(block []complex128) []complex128
	Reset()
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
	// SOABlocks counts filter-stage blocks that dsp.FIR reports ran the
	// planar SoA kernel rather than the per-sample direct form.
	SOABlocks *obs.Counter
	// Latency distributes chain end-to-end latencies seen by CheckBudget.
	Latency *obs.Histogram
	// Violations counts CheckBudget calls whose latency exceeded the budget.
	Violations *obs.Counter
	// BatchSweeps counts rounds — passes that advance every session on a
	// core by one block — and BatchSessions the session blocks those
	// rounds advanced. The relay daemon counts each served block as a
	// round of one session; RunSessionSweep counts one round per pass
	// over its N sessions.
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
		SOABlocks:     reg.Counter("pipeline.soa_blocks", "blocks"),
		Latency:       reg.Histogram("pipeline.latency_samples", "samples", obs.LinearBuckets(0, 2, 17)),
		Violations:    reg.Counter("pipeline.budget_violations", "chains"),
		BatchSweeps:   reg.Counter("pipeline.batch.sweeps", "sweeps"),
		BatchSessions: reg.Counter("pipeline.batch.sessions", "blocks"),
		reg:           reg,
	}
}

// soaObservable is implemented by the stages that filter through dsp.FIR
// and count its planar blocks.
type soaObservable interface {
	setSoAObs(c *obs.Counter, shard int)
}

// Chain composes stages into one Stage: the block flows through the
// stages in order. A Chain is itself a Stage, so chains nest.
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

// Instrument attaches pipeline metrics: block/sample counters on the
// given shard, the SoA block-path counter on capable stages, and
// one wall-clock timer per stage named pipeline.<chain>.<stage>. Nil o (or
// an o from a nil registry) detaches.
func (c *Chain) Instrument(o *Obs, shard int) {
	c.o = o
	c.shard = shard
	c.timers = nil
	var soa *obs.Counter
	if o != nil {
		soa = o.SOABlocks
	}
	for _, st := range c.stages {
		if so, ok := st.(soaObservable); ok {
			so.setSoAObs(soa, shard)
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

// CheckBudget holds a processing delay in samples against a budget in
// samples (typically the OFDM CP length) and reports whether it fits. On
// a non-nil o it records the delay into pipeline.latency_samples and
// counts an overrun in pipeline.budget_violations on the given shard —
// the check is soft because the latency experiment (Fig 16) deliberately
// sweeps past the CP.
func (o *Obs) CheckBudget(shard, latencySamples, budgetSamples int) bool {
	if o != nil {
		o.Latency.Observe(shard, float64(latencySamples))
		if latencySamples > budgetSamples {
			o.Violations.Inc(shard)
		}
	}
	return latencySamples <= budgetSamples
}
