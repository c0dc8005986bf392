// Package relay implements the FastForward relay device as a streaming
// sample processor, plus the baseline relays the paper compares against.
//
// The FFRelay models the full Layer-1 pipeline of Fig 3 at baseband sample
// resolution: the physical TX→RX self-interference feedback path, causal
// digital cancellation, CFO removal and restoration (Sec 4.1), the CNF
// digital pre-filter, amplification, known-noise injection for cancellation
// tuning, and an explicit pipeline delay (ADC/DAC and any buffering) — the
// knob the latency experiment (Fig 16) sweeps. Because the transmitted
// signal feeds back into the received signal, the simulation exhibits the
// positive-feedback instability of Fig 7 mechanically when amplification
// exceeds isolation.
//
// ChooseAmplificationDB centralizes the device's amplification rule —
// A = min(C − stability margin, a − noise margin, PA headroom) — and
// reports which bound was active (AmpDecision), the quantity behind the
// relay.amp_db / relay.amp_bound.* run metrics of OBSERVABILITY.md.
// ChooseAmplificationResidualDB makes the noise rule
// self-interference-aware and extends it to many concurrent sessions
// sharing one receiver noise floor (budget.go). The package holds only
// this physics; the admission ledger that applies it across a daemon's
// sessions is relayd.Gate (OPERATIONS.md).
package relay

import (
	"math"

	"fastforward/internal/dsp"
	"fastforward/internal/impair"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// Config parameterizes an FFRelay.
type Config struct {
	// SampleRate in samples/second (20 Msps for the paper's PHY).
	SampleRate float64
	// AmplificationDB is the power amplification applied to the cleaned
	// received signal.
	AmplificationDB float64
	// PipelineDelaySamples is the processing latency through the relay in
	// whole samples (ADC+DAC ≈ 1 sample at 20 Msps, plus any buffering).
	// Must be at least 1: the transmitted sample cannot depend on the
	// received sample of the same instant.
	PipelineDelaySamples int
	// PreFilterTaps is the CNF digital pre-filter at SampleRate (already
	// including any analog-stage rotation folded in). Defaults to a unit
	// impulse (pure amplify-and-forward).
	PreFilterTaps []complex128
	// CFOHz is the relay's carrier offset relative to the source. The
	// relay removes it before filtering and restores it before
	// transmission so the destination sees the source's CFO unchanged.
	CFOHz float64
	// SIChannelTaps is the *physical* residual self-interference channel
	// (after analog cancellation) at sample spacing.
	SIChannelTaps []complex128
	// CancelTaps is the digital canceller's estimate of SIChannelTaps.
	CancelTaps []complex128
	// InjectNoiseMW, when positive, continuously adds known Gaussian noise
	// of this power to the transmission (the tuning probe of Sec 3.3).
	InjectNoiseMW float64
	// NoiseSource supplies receiver and injection noise; required when
	// RxNoiseMW or InjectNoiseMW is positive.
	NoiseSource *rng.Source
	// RxNoiseMW is the relay receiver's thermal noise power.
	RxNoiseMW float64
	// Impair is the relay's hardware impairment profile (nil = ideal).
	// The receive chain (CFO, phase noise, IQ, ADC) distorts what the
	// digital canceller sees, so cancellation erodes toward the profile's
	// floor; the transmit chain (PA compression) distorts what feeds back.
	Impair *impair.Profile
	// ImpairSource draws the impairment randomness (phase-noise walk);
	// keep it separate from NoiseSource so toggling impairments never
	// shifts the noise stream. Required when Impair configures phase noise.
	ImpairSource *rng.Source
	// ImpairRefRMS is the AGC reference amplitude the impairment streams
	// level against (ADC full scale, PA saturation). Defaults to the RMS
	// of a unit-power signal (1.0) when zero.
	ImpairRefRMS float64
}

// FFRelay is a streaming full-duplex relay. Internally the forward path
// is a pipeline.Chain — the shared pipeline.NewForwardStages path (SI
// cancel → CFO remove → CNF filter → CFO restore → amp) behind optional
// receive impairments and ahead of the pipeline delay — driven one
// sample per Step through the physical feedback loop; the same chain
// carries the latency accounting behind the ≤100 ns processing-delay
// claim.
type FFRelay struct {
	cfg Config
	// si is the physical TX→RX leakage channel (outside the device).
	si     *dsp.FIR
	cancel *pipeline.CancelStage
	// fwd is the device's forward signal path as a declared chain.
	fwd *pipeline.Chain
	// tx is the transmit-side impairment chain (nil when ideal).
	tx *pipeline.Chain
	// pending is the chain's output from the previous Step: the sample the
	// handoff register releases to the antenna next instant.
	pending complex128
	// lastInjected holds the most recent injected-noise sample, exposed for
	// tuning procedures that correlate against the known probe.
	lastInjected complex128
	// refBuf/rxBuf/txBuf are 1-sample scratch blocks for the per-sample
	// drive of the block chain (no per-Step allocation).
	refBuf [1]complex128
	rxBuf  [1]complex128
	txBuf  [1]complex128
}

// New builds the relay. It panics on nonsensical configurations (zero
// sample rate, pipeline delay < 1).
func New(cfg Config) *FFRelay {
	if cfg.SampleRate <= 0 {
		panic("relay: SampleRate must be positive")
	}
	if cfg.PipelineDelaySamples < 1 {
		panic("relay: PipelineDelaySamples must be >= 1 (no zero-delay loop)")
	}
	pre := cfg.PreFilterTaps
	if len(pre) == 0 {
		pre = []complex128{1}
	}
	si := cfg.SIChannelTaps
	if len(si) == 0 {
		si = []complex128{0}
	}
	canc := cfg.CancelTaps
	if len(canc) == 0 {
		canc = make([]complex128, len(si))
	}
	if (cfg.RxNoiseMW > 0 || cfg.InjectNoiseMW > 0) && cfg.NoiseSource == nil {
		panic("relay: NoiseSource required when noise powers are set")
	}
	var rxImp, txImp *impair.Stream
	if !cfg.Impair.IsZero() {
		if cfg.Impair.PhaseNoiseRadRMS > 0 && cfg.ImpairSource == nil {
			panic("relay: ImpairSource required when Impair configures phase noise")
		}
		ref := cfg.ImpairRefRMS
		if ref <= 0 {
			ref = 1
		}
		rxImp = impair.NewRxStream(cfg.Impair, cfg.ImpairSource, cfg.SampleRate, ref)
		txImp = impair.NewTxStream(cfg.Impair, ref)
	}
	fwd, cancel := pipeline.NewForwardStages(canc, pre, 2*math.Pi*cfg.CFOHz/cfg.SampleRate, cfg.AmplificationDB)
	r := &FFRelay{cfg: cfg, si: dsp.NewFIR(si), cancel: cancel}
	stages := make([]pipeline.Stage, 0, len(fwd)+3)
	if rxImp != nil {
		// Receive-chain impairments distort what the canceller observes,
		// while its reference (tx) stays clean — the mismatch a linear
		// canceller cannot subtract, eroding cancellation to the profile's
		// floor.
		stages = append(stages, pipeline.NewPusherStage("rx_impair", 0, rxImp))
	}
	stages = append(stages, fwd...)
	stages = append(stages,
		// The pending-sample handoff contributes one sample of delay, so
		// the delay line holds the remainder; the marker declares the
		// handoff register's sample so LatencySamples reports the full
		// configured pipeline delay.
		pipeline.NewDelayStage("pipe", cfg.PipelineDelaySamples-1),
		pipeline.NewLatencyMarker("handoff", 1),
	)
	r.fwd = pipeline.NewChain("relay.fwd", stages...)
	if txImp != nil {
		// PA compression acts on the physically transmitted waveform.
		r.tx = pipeline.NewChain("relay.tx", pipeline.NewPusherStage("pa", 0, txImp))
	}
	return r
}

// LatencySamples returns the chain-accounted pipeline latency in samples.
func (r *FFRelay) LatencySamples() int { return r.fwd.LatencySamples() }

// Step advances the relay by one sample: incoming is the signal arriving
// over the air from the source (without self-interference — the relay adds
// that internally). It returns the sample the relay transmits this instant.
//
// The forward chain runs on a one-sample block per Step because the
// physical feedback loop closes every sample: tx[n] leaks into rx[n]
// through the SI channel, so the chain cannot be driven in larger blocks
// without breaking causality. Chain state makes this bit-identical to any
// other segmentation of the same sample stream.
func (r *FFRelay) Step(incoming complex128) complex128 {
	// 1. The sample leaving the pipeline is transmitted now.
	var inj complex128
	if r.cfg.InjectNoiseMW > 0 {
		inj = r.cfg.NoiseSource.ComplexGaussian(r.cfg.InjectNoiseMW)
	}
	r.lastInjected = inj

	// The chain output computed last Step leaves the handoff register now;
	// with the in-chain delay of PipelineDelaySamples−1 this makes tx[n]
	// depend on rx[n−d], never on rx[n]. Add the injection probe.
	tx := r.pending + inj
	if r.tx != nil {
		r.txBuf[0] = tx
		r.tx.Process(r.txBuf[:])
		tx = r.txBuf[0]
	}

	// 2. Physical reception: incoming + self-interference + thermal noise.
	var noise complex128
	if r.cfg.RxNoiseMW > 0 {
		noise = r.cfg.NoiseSource.ComplexGaussian(r.cfg.RxNoiseMW)
	}
	rx := incoming + r.si.Push(tx) + noise

	// 3–5. The forward chain: receive impairments, causal digital
	// cancellation against this instant's tx, CFO removal, CNF
	// pre-filtering, CFO restoration, amplification, pipeline delay.
	r.refBuf[0] = tx
	r.cancel.SetReference(r.refBuf[:])
	r.rxBuf[0] = rx
	out := r.fwd.Process(r.rxBuf[:])
	r.pending = out[0]
	return tx
}

// Process runs the relay over a block of incoming samples and returns the
// transmitted samples.
func (r *FFRelay) Process(incoming []complex128) []complex128 {
	out := make([]complex128, len(incoming)) //fflint:allow allocfree allocating convenience wrapper; hot paths call ProcessInto with caller-owned buffers
	r.ProcessInto(out, incoming)
	return out
}

// ProcessInto runs the relay over a block of incoming samples into a
// caller-owned output buffer (no per-call allocation). out and incoming
// may alias.
func (r *FFRelay) ProcessInto(out, incoming []complex128) {
	if len(out) != len(incoming) {
		panic("relay: ProcessInto length mismatch")
	}
	for i, v := range incoming {
		out[i] = r.Step(v)
	}
}

// LastInjected returns the most recent injected-noise sample (the known
// tuning probe).
func (r *FFRelay) LastInjected() complex128 { return r.lastInjected }

// Reset clears all filter and pipeline state.
func (r *FFRelay) Reset() {
	r.si.Reset()
	r.fwd.Reset()
	if r.tx != nil {
		r.tx.Reset()
	}
	r.pending = 0
}
