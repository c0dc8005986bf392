// Package testbed is the evaluation harness: it recreates the paper's
// indoor experiments (Sec 5) on the simulated substrate. For every client
// location in a scenario it evaluates the downlink PHY throughput of the
// paper's three schemes — AP only, AP + half-duplex mesh router, and
// AP + FastForward relay — plus the blind amplify-and-forward ablation,
// with full noise accounting, the cancellation-bounded and noise-ruled
// amplification, CNF filtering (ideal or synthesized), and an explicit
// inter-symbol-interference penalty when the relayed path exceeds the
// OFDM cyclic prefix.
//
// Sweeps run on the parallel engine (internal/par) and are bit-identical
// for any worker count. With Config.Obs set, every evaluation also
// records the testbed.*, relay.* and cnf.* run metrics of
// OBSERVABILITY.md through order-independent shards, so the recorded
// metrics inherit the same determinism guarantee.
package testbed

import (
	"math"

	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/floorplan"
	"fastforward/internal/impair"
	"fastforward/internal/linalg"
	"fastforward/internal/obs"
	"fastforward/internal/ofdm"
	"fastforward/internal/par"
	"fastforward/internal/phyrate"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/wifi"
)

// Config controls an evaluation run.
type Config struct {
	// Seed drives all randomness (MIMO optimizer restarts).
	Seed int64
	// MIMO selects 2×2 MIMO (true) or SISO (false) end to end.
	MIMO bool
	// GridSpacingM is the client grid pitch in meters.
	GridSpacingM float64
	// CancellationDB is the relay's total self-interference cancellation;
	// it caps amplification (Fig 7/18). Default 110.
	CancellationDB float64
	// Impair, when non-nil and non-zero, degrades the relay with the
	// profile's hardware impairments and control-plane faults: the
	// cancellation budget is capped at the profile's floor (which backs off
	// amplification and raises the forwarded residual), the CNF filter is
	// computed from CSI aged by the profile's staleness model, and lost or
	// corrupted sounding rounds force the relay onto its last-known-good
	// filter — or all the way down to blind amplify-and-forward when the
	// filter ages out. A nil or zero profile changes nothing, bit for bit.
	Impair *impair.Profile
	// ProcessingDelayNs is the relay's processing latency (Fig 16 sweeps
	// this; the prototype achieves <100 ns).
	ProcessingDelayNs float64
	// CNF enables construct-and-forward filtering; false gives the blind
	// amplify-and-forward of Sec 5.5.
	CNF bool
	// NoiseRule enables the Sec 3.5 amplification back-off. The blind
	// repeater of Sec 5.5 amplifies "to the maximum extent" instead.
	NoiseRule bool
	// SynthesizedFilter uses the implementable digital+analog CNF filter
	// (Sec 3.4) instead of the ideal per-subcarrier response.
	SynthesizedFilter bool
	// CarrierStride evaluates every n-th data subcarrier (1 = all 52);
	// larger strides trade accuracy for speed in wide sweeps.
	CarrierStride int
	// TxPowerDBm is the AP's transmit power. The default (15 dBm) matches
	// WARP-class software radios; combined with NoiseFigureDB it
	// calibrates the link budget so the client SNR distribution sits where
	// the paper's Fig 1 heatmap shows (mostly 5-25 dB with dead spots at
	// the edges).
	TxPowerDBm float64
	// NoiseFigureDB is the receiver noise figure over the thermal floor.
	NoiseFigureDB float64
	// RelayMaxTxDBm caps the relay's transmit power (its PA limit); the
	// amplification cannot push the relayed signal beyond it.
	RelayMaxTxDBm float64
	// Workers bounds the worker pool of the parallel sweep engine
	// (internal/par): 1 forces the serial reference path, 0 (the default)
	// means one worker per CPU. Results are bit-identical for every value
	// because each client location derives its own rng stream from Seed.
	Workers int
	// Obs, when non-nil, receives the testbed.*, relay.* and cnf.* run
	// metrics (see OBSERVABILITY.md). Recording is sharded and
	// order-independent, so metric values stay bit-identical for any
	// Workers count. Nil disables instrumentation at near-zero cost.
	Obs *obs.Registry
}

// DefaultConfig returns the paper's operating point: 2×2 MIMO, 110 dB
// cancellation, sub-CP latency, CNF with the noise rule, synthesized
// filters.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		MIMO:              true,
		GridSpacingM:      1.0,
		CancellationDB:    110,
		ProcessingDelayNs: 100,
		CNF:               true,
		NoiseRule:         true,
		SynthesizedFilter: true,
		CarrierStride:     4,
		TxPowerDBm:        0,
		NoiseFigureDB:     8,
		RelayMaxTxDBm:     0,
	}
}

// Evaluation is the outcome at one client location.
type Evaluation struct {
	// Location of the client.
	Location floorplan.Point
	// APOnlyMbps, HalfDuplexMbps, RelayMbps are the three schemes' PHY
	// throughputs; RelayMbps follows the Config (FF or amplify-only).
	APOnlyMbps, HalfDuplexMbps, RelayMbps float64
	// APOnlySNRdB is the strongest-stream SNR without any relay.
	APOnlySNRdB float64
	// APOnlyStreams is the usable stream count without any relay.
	APOnlyStreams int
	// RelayStreams is the stream count with the FF relay.
	RelayStreams int
	// APOnlyRank and RelayRank are the effective channel ranks (streams
	// "possible" in the Fig 2 sense: eigen-channels within 20 dB of the
	// strongest), before and with the relay.
	APOnlyRank, RelayRank int
	// Class is the Fig 15 client category.
	Class phyrate.ClientClass
}

// Testbed evaluates clients in one scenario. After New it is read-only,
// so one Testbed may evaluate many clients concurrently; all randomness is
// derived per client location from Config.Seed.
type Testbed struct {
	cfg      Config
	scenario floorplan.Scenario
	params   *ofdm.Params
	carriers []int
	ins      instruments

	// relayLat is the relay forward chain's accounted latency in samples;
	// delayBudget is Config.ProcessingDelayNs converted to whole samples.
	relayLat    int
	delayBudget int

	// Cached relay-side state (independent of client position).
	apRelayPaths []floorplan.Path
}

// New builds a testbed for a scenario. It instantiates a reference relay
// chain for the configured processing delay, asserts the chain's accounted
// latency fits the configured budget, and records the chain latency
// against the OFDM CP through the pipeline.* metrics (soft: Fig 16
// deliberately sweeps the delay past the CP).
func New(sc floorplan.Scenario, cfg Config) *Testbed {
	if cfg.CarrierStride < 1 {
		cfg.CarrierStride = 1
	}
	p := ofdm.Default20MHz()
	var carriers []int
	for i, k := range p.DataCarriers {
		if i%cfg.CarrierStride == 0 {
			carriers = append(carriers, k)
		}
	}
	tb := &Testbed{
		cfg:          cfg,
		scenario:     sc,
		params:       p,
		carriers:     carriers,
		ins:          newInstruments(cfg.Obs),
		apRelayPaths: sc.Plan.Trace(sc.AP, sc.Relay, 2),
	}
	// The configured processing delay in whole samples (≥1: the relay
	// cannot retransmit the sample it is still receiving).
	tb.delayBudget = int(math.Ceil(cfg.ProcessingDelayNs * 1e-9 * p.SampleRate))
	if tb.delayBudget < 1 {
		tb.delayBudget = 1
	}
	ref := relay.New(relay.Config{
		SampleRate:           p.SampleRate,
		PipelineDelaySamples: tb.delayBudget,
	})
	tb.relayLat = ref.LatencySamples()
	if tb.relayLat > tb.delayBudget {
		// Internal consistency: the chain must account exactly the delay it
		// was configured with; a hidden latency stage is a programming error.
		panic("testbed: relay chain latency exceeds the configured processing-delay budget")
	}
	// New runs serially, so shard 0 keeps recording deterministic.
	tb.ins.pipe.CheckBudget(0, tb.relayLat, p.CPLen)
	return tb
}

// RelayLatencySamples returns the relay forward chain's accounted latency.
func (tb *Testbed) RelayLatencySamples() int { return tb.relayLat }

// RelayDelayBudgetSamples returns Config.ProcessingDelayNs in samples.
func (tb *Testbed) RelayDelayBudgetSamples() int { return tb.delayBudget }

// Params exposes the OFDM numerology in use.
func (tb *Testbed) Params() *ofdm.Params { return tb.params }

// ClientGrid returns the evaluation locations: grid points at the
// configured spacing, excluding spots on top of the AP or relay.
func (tb *Testbed) ClientGrid() []floorplan.Point {
	pts := tb.scenario.Plan.Grid(tb.cfg.GridSpacingM, 0.7)
	out := pts[:0]
	for _, pt := range pts {
		if pt.Dist(tb.scenario.AP) < 1.0 || pt.Dist(tb.scenario.Relay) < 1.0 {
			continue
		}
		out = append(out, pt)
	}
	return out
}

// CPOverlap returns the coherent-combining weight of the relayed path:
// 1 when the extra delay vs the direct path is within the CP, decaying
// linearly to 0 as the overlap with the correct FFT window vanishes
// (Fig 4/6). The second return value is the fraction of relayed power that
// turns into inter-symbol interference.
func (tb *Testbed) CPOverlap(directDelayS, relayPathDelayS float64) (useful float64, isiFrac float64) {
	extra := relayPathDelayS - directDelayS
	if extra < 0 {
		extra = 0
	}
	cp := tb.params.CPDuration()
	if extra <= cp {
		return 1, 0
	}
	fftDur := float64(tb.params.NFFT) / tb.params.SampleRate
	w := 1 - (extra-cp)/fftDur
	if w < 0 {
		w = 0
	}
	return w, 1 - w*w
}

// clientSeed derives the rng seed for one client location. Seeding by
// location (rather than by a shared sequential stream) makes every
// evaluation independent of execution order, which is what lets the
// parallel sweep engine produce bit-identical results for any worker
// count — and makes a direct EvaluateClient call reproduce the exact
// RunAll slot for that location.
func clientSeed(base int64, client floorplan.Point) int64 {
	s := rng.ItemSeed(base, int(int64(math.Float64bits(client.X))))
	return rng.ItemSeed(s, int(int64(math.Float64bits(client.Y))))
}

// EvaluateClient computes all schemes at one client location. It is safe
// to call concurrently: all randomness comes from a location-derived seed.
func (tb *Testbed) EvaluateClient(client floorplan.Point) Evaluation {
	seed := clientSeed(tb.cfg.Seed, client)
	shard := obs.ShardForSeed(seed)
	src := rng.New(seed)
	sc := tb.scenario
	sdPaths := sc.Plan.Trace(sc.AP, client, 2)
	rdPaths := sc.Plan.Trace(sc.Relay, client, 2)
	ev := Evaluation{Location: client}

	txMW := dsp.WattsFromDBm(tb.cfg.TxPowerDBm) * 1000
	n0 := channel.NoiseFloorMW() * dsp.Linear(tb.cfg.NoiseFigureDB)

	// Impairments cap the cancellation budget at the profile's floor and
	// determine, per client, how stale the filter CSI is (or whether the
	// relay lost its filter entirely). The ideal path is untouched: a nil
	// or zero profile leaves imp nil and effC at the configured budget.
	effC := tb.cfg.CancellationDB
	var imp *impairState
	if !tb.cfg.Impair.IsZero() {
		effC = tb.cfg.Impair.EffectiveCancellationDB(tb.cfg.CancellationDB)
		imp = tb.soundingState(tb.cfg.Impair, seed, shard)
		tb.ins.effCancel.Observe(shard, effC)
	}

	// Relay power budget: cancellation bound, noise rule, and PA limit
	// (the PA cap keeps the amplified signal within the relay's max TX
	// power). Degraded cancellation tightens the stability bound, so
	// amplification backs off as the front-end erodes (no Fig 7 feedback
	// instability under faults).
	rdAttenDB := -floorplan.AveragePowerGainDB(rdPaths)
	rxAtRelayDBm := tb.cfg.TxPowerDBm + floorplan.AveragePowerGainDB(tb.apRelayPaths)
	paHeadroomDB := tb.cfg.RelayMaxTxDBm - rxAtRelayDBm
	var amp relay.AmpDecision
	if imp != nil {
		// Degraded cancellation leaves residual self-interference in the
		// relay's receiver; the noise rule must back amplification off for
		// that elevated floor too, or the forwarded residual swamps the
		// destination (the valley between "relay off" and "relay clean").
		amp = relay.ChooseAmplificationResidualDB(effC, rdAttenDB, paHeadroomDB,
			rxAtRelayDBm-dsp.DB(n0), tb.cfg.NoiseRule)
	} else {
		amp = relay.ChooseAmplificationDB(effC, rdAttenDB, paHeadroomDB, tb.cfg.NoiseRule)
	}
	if imp != nil && tb.useCNF(imp) && imp.rho < 1 {
		// Stale CSI makes the constructive filter only rho-correlated with
		// the channel it is applied to; the misaligned remainder combines
		// with random phase and can cancel the direct path. Shrink the relay
		// amplitude by the MMSE confidence rho (E[h|ĥ] = rho·ĥ), so a relay
		// that knows less transmits less — the same back-off-to-safety shape
		// as the cancellation bound.
		amp.AmpDB += 2 * dsp.DB(imp.rho)
		if amp.AmpDB < 0 {
			amp.AmpDB = 0
		}
		amp.StabilityHeadroomDB = effC - amp.AmpDB
	}
	ampDB := amp.AmpDB

	// ISI weighting: the latest significant relayed energy (multipath tail
	// of both hops plus processing delay) must land within the CP of the
	// earliest direct arrival.
	directDelay := minDelay(sdPaths)
	relayDelay := maxDelay(tb.apRelayPaths) + maxDelay(rdPaths) +
		tb.cfg.ProcessingDelayNs*1e-9
	useful, isiFrac := tb.CPOverlap(directDelay, relayDelay)

	// Residual self-interference after cancellation raises the relay's
	// effective receiver noise: the relay transmits at rx+amp power and
	// cancels by CancellationDB, leaving TXrelay−C as in-band residual
	// (Sec 3.3/Fig 18 — at 110 dB the residual sits at the thermal floor).
	rxAtRelayMW := txMW * dsp.Linear(floorplan.AveragePowerGainDB(tb.apRelayPaths))
	relayTxMW := rxAtRelayMW * dsp.Linear(ampDB)
	relayNoiseMW := n0 + relayTxMW*dsp.Linear(-effC)

	if tb.cfg.MIMO {
		tb.evaluateMIMO(&ev, src, shard, imp, sdPaths, rdPaths, txMW, n0, relayNoiseMW, ampDB, useful, isiFrac)
	} else {
		tb.evaluateSISO(&ev, shard, imp, sdPaths, rdPaths, txMW, n0, relayNoiseMW, ampDB, useful, isiFrac)
	}
	ev.Class = phyrate.Classify(ev.APOnlySNRdB, ev.APOnlyRank)
	tb.ins.recordEvaluation(shard, &ev, amp)
	return ev
}

// Sounding-fault policy: each client evaluation simulates soundingRounds
// refresh intervals to reach a steady-state staleness draw; the relay
// holds its last-known-good filter through maxStaleIntervals missed rounds
// before declaring it dead and falling back to blind amplify-and-forward.
const (
	soundingRounds    = 8
	maxStaleIntervals = 4
)

// impairState is a client's control-plane impairment outcome: the source
// for CSI-aging draws, the combined correlation between the CSI the filter
// was computed from and the channel it is applied to, and whether the
// relay lost its filter outright.
type impairState struct {
	src   *rng.Source
	rho   float64
	blind bool
}

// soundingState simulates the sounding rounds for one client under the
// profile's loss model. The source is derived from the client seed through
// impair.Source, so channel synthesis never shares a stream with fault
// injection, and exactly soundingRounds variates are always consumed —
// staying deterministic for any worker count.
func (tb *Testbed) soundingState(p *impair.Profile, seed int64, shard int) *impairState {
	isrc := impair.Source(seed, 0)
	tr := cnf.FilterTracker{MaxStaleIntervals: maxStaleIntervals}
	filter := []complex128{1} // marker: tracker state is all we need here
	for k := 0; k < soundingRounds; k++ {
		tr.Advance(p.DrawSounding(isrc), func() []complex128 { return filter })
	}
	tb.ins.soundOK.Add(shard, uint64(tr.Updates))
	tb.ins.soundMiss.Add(shard, uint64(tr.Misses))
	st := &impairState{src: isrc, rho: 1}
	if _, ok := tr.Current(); !ok {
		st.blind = true
		tb.ins.blindFallback.Inc(shard)
		return st
	}
	// Each missed round extends the filter CSI's age by one full refresh
	// interval on top of the profile's baseline within-interval age.
	st.rho = math.Pow(p.AgingRho(), float64(1+tr.StaleIntervals()))
	if tr.StaleIntervals() > 0 {
		tb.ins.staleFilter.Inc(shard)
	}
	tb.ins.csiRho.Observe(shard, st.rho)
	return st
}

// ageSISO returns the CSI the filter is computed from: the true channel
// decorrelated to the state's aging rho. Rates always evaluate on the true
// channel — only the filter sees stale state.
func (st *impairState) ageSISO(h []complex128) []complex128 {
	if st == nil || st.rho >= 1 {
		return h
	}
	return impair.AgeCSI(st.src, h, st.rho)
}

// ageMatrices is ageSISO for a per-carrier stack of MIMO responses.
func (st *impairState) ageMatrices(H []*linalg.Matrix) []*linalg.Matrix {
	if st == nil || st.rho >= 1 {
		return H
	}
	out := make([]*linalg.Matrix, len(H))
	for i, m := range H {
		c := m.Clone()
		c.Data = impair.AgeCSI(st.src, c.Data, st.rho)
		out[i] = c
	}
	return out
}

// useCNF reports whether this client still runs the constructive filter:
// CNF must be configured and the relay must not have aged out its filter.
func (tb *Testbed) useCNF(imp *impairState) bool {
	return tb.cfg.CNF && (imp == nil || !imp.blind)
}

func minDelay(paths []floorplan.Path) float64 {
	if len(paths) == 0 {
		return 0
	}
	d := math.Inf(1)
	for _, p := range paths {
		if p.DelayS < d {
			d = p.DelayS
		}
	}
	return d
}

// maxDelay returns the latest significant path delay (the tracer already
// prunes paths more than 40 dB below the strongest).
func maxDelay(paths []floorplan.Path) float64 {
	var d float64
	for _, p := range paths {
		if p.DelayS > d {
			d = p.DelayS
		}
	}
	return d
}

// evaluateSISO fills the evaluation for single-antenna devices.
func (tb *Testbed) evaluateSISO(ev *Evaluation, shard int, imp *impairState, sdPaths, rdPaths []floorplan.Path, txMW, n0, relayNoiseMW, ampDB float64, useful, isiFrac float64) {
	p := tb.params
	fs := p.SampleRate
	hsd := floorplan.SISOChannel(sdPaths, fs, 0).ResponseVector(tb.carriers, p.NFFT)
	hsr := floorplan.SISOChannel(tb.apRelayPaths, fs, 0).ResponseVector(tb.carriers, p.NFFT)
	hrd := floorplan.SISOChannel(rdPaths, fs, 0).ResponseVector(tb.carriers, p.NFFT)

	// AP only.
	ev.APOnlyMbps = phyrate.SISORateMbps(p, hsd, txMW, n0, nil)
	ev.APOnlySNRdB = meanSNRdB(hsd, txMW, n0)
	ev.APOnlyStreams = 1
	if ev.APOnlyMbps == 0 {
		ev.APOnlyStreams = 0
	}

	// Half-duplex mesh.
	r1 := phyrate.SISORateMbps(p, hsr, txMW, n0, nil)
	r2 := phyrate.SISORateMbps(p, hrd, txMW, n0, nil)
	ev.HalfDuplexMbps = relay.BestHalfDuplexRate(ev.APOnlyMbps, r1, r2)

	// Relay (FF or amplify-only; a client whose relay aged out its filter
	// degrades to the amplify-only branch).
	var hc []complex128
	if tb.useCNF(imp) {
		hc = cnf.DesiredSISO(imp.ageSISO(hsd), imp.ageSISO(hsr), imp.ageSISO(hrd), ampDB)
		if tb.cfg.SynthesizedFilter {
			impl := cnf.Synthesize(hc, tb.carriers, p.NFFT, fs)
			hc = impl.ApplyImplementation(tb.carriers, p.NFFT, fs)
			tb.ins.tapEnergy.Observe(shard, dsp.DB(impl.TapEnergy()))
			tb.ins.fitError.Observe(shard, impl.FitErrorDB)
		}
	} else {
		amp := complex(dsp.AmplitudeFromDB(ampDB), 0)
		hc = make([]complex128, len(hsd))
		for i := range hc {
			hc[i] = amp
		}
	}
	heff := make([]complex128, len(hsd))
	extraNoise := make([]float64, len(hsd))
	w := complex(useful, 0)
	var directPow, combinedPow float64
	for i := range hsd {
		// The relay-to-destination gain hrd·hc scales the forwarded
		// receiver noise; the AP→relay hop completes the relayed path.
		g := hrd[i] * hc[i]
		relayed := g * hsr[i]
		heff[i] = hsd[i] + w*relayed
		gPow := absSq(g)
		// Relay receiver noise (thermal plus residual self-interference)
		// forwarded to the destination, plus the relayed signal power that
		// falls outside the CP as ISI.
		extraNoise[i] = gPow*relayNoiseMW*useful*useful + isiFrac*(absSq(relayed)*txMW+gPow*relayNoiseMW)
		directPow += absSq(hsd[i])
		combinedPow += absSq(heff[i])
	}
	if directPow > 0 && combinedPow > 0 {
		tb.ins.coherence.Observe(shard, dsp.DB(combinedPow/directPow))
	}
	ev.RelayMbps = phyrate.SISORateMbps(p, heff, txMW, n0, extraNoise)
	ev.RelayStreams = 1
	if ev.RelayMbps == 0 {
		ev.RelayStreams = 0
	}
	ev.APOnlyRank = ev.APOnlyStreams
	ev.RelayRank = ev.RelayStreams
}

// evaluateMIMO fills the evaluation for 2×2 devices (2-antenna relay).
func (tb *Testbed) evaluateMIMO(ev *Evaluation, src *rng.Source, shard int, imp *impairState, sdPaths, rdPaths []floorplan.Path, txMW, n0, relayNoiseMW, ampDB float64, useful, isiFrac float64) {
	p := tb.params
	fs := p.SampleRate
	const nAnt = 2
	const diffuse = 0.2 // dense multipath per a ~7 dB indoor Rician K-factor
	msd := floorplan.MIMOChannelDiffuse(sdPaths, nAnt, nAnt, fs, src, diffuse)
	msr := floorplan.MIMOChannelDiffuse(tb.apRelayPaths, nAnt, nAnt, fs, src, diffuse)
	mrd := floorplan.MIMOChannelDiffuse(rdPaths, nAnt, nAnt, fs, src, diffuse)

	Hsd := make([]*linalg.Matrix, len(tb.carriers))
	Hsr := make([]*linalg.Matrix, len(tb.carriers))
	Hrd := make([]*linalg.Matrix, len(tb.carriers))
	for i, k := range tb.carriers {
		Hsd[i] = msd.FrequencyResponse(k, p.NFFT)
		Hsr[i] = msr.FrequencyResponse(k, p.NFFT)
		Hrd[i] = mrd.FrequencyResponse(k, p.NFFT)
	}

	// AP only.
	apRes := phyrate.MIMORateMbps(p, Hsd, nil, txMW, n0)
	ev.APOnlyMbps = apRes.RateMbps
	ev.APOnlyStreams = apRes.Streams
	ev.APOnlyRank = apRes.UsableStreams
	if len(apRes.PerStreamSNRdB) > 0 {
		ev.APOnlySNRdB = apRes.PerStreamSNRdB[0]
	} else {
		ev.APOnlySNRdB = math.Inf(-1)
	}

	// Half-duplex mesh (MIMO on both hops).
	r1 := phyrate.MIMORateMbps(p, Hsr, nil, txMW, n0).RateMbps
	r2 := phyrate.MIMORateMbps(p, Hrd, nil, txMW, n0).RateMbps
	ev.HalfDuplexMbps = relay.BestHalfDuplexRate(ev.APOnlyMbps, r1, r2)

	// Relay filter.
	var FA []*linalg.Matrix
	if tb.useCNF(imp) {
		FA = cnf.DesiredMIMO(imp.ageMatrices(Hsd), imp.ageMatrices(Hsr), imp.ageMatrices(Hrd), ampDB, src)
		if tb.cfg.SynthesizedFilter {
			impl := cnf.SynthesizeMIMO(FA, tb.carriers, p.NFFT, fs)
			FA = impl.ApplyImplementation(tb.carriers, p.NFFT, fs)
			tb.ins.tapEnergy.Observe(shard, dsp.DB(impl.TapEnergy()))
			tb.ins.fitError.Observe(shard, impl.WorstFitErrorDB())
		}
	} else {
		// Blind amplify-and-forward (Sec 5.5): without channel knowledge
		// there is no MIMO constructive filter — the repeater is a single
		// receive→transmit chain (as commercial repeaters are, Sec 2), so
		// its forwarding matrix is rank one.
		FA = make([]*linalg.Matrix, len(Hsd))
		blind := linalg.NewMatrix(nAnt, nAnt)
		blind.Set(0, 0, complex(dsp.AmplitudeFromDB(ampDB), 0))
		for i := range FA {
			FA[i] = blind
		}
	}
	Heff := make([]*linalg.Matrix, len(Hsd))
	cov := make([]*linalg.Matrix, len(Hsd))
	var directPow, combinedPow float64
	for i := range Hsd {
		// Hrd·FA is the relay-to-destination gain that scales the
		// forwarded receiver noise; ·Hsr completes the relayed path, which
		// the CP overlap weights.
		HrdFA := Hrd[i].Mul(FA[i])
		rel := HrdFA.Mul(Hsr[i])
		Heff[i] = Hsd[i].Add(rel.Scale(useful))
		fd := Hsd[i].FrobeniusNorm()
		fc := Heff[i].FrobeniusNorm()
		directPow += fd * fd
		combinedPow += fc * fc
		cov[i] = phyrate.NoiseCovariance(HrdFA.Scale(useful), n0, relayNoiseMW)
		if isiFrac > 0 {
			// Relayed power that falls outside the CP becomes white-ish
			// interference across antennas.
			isiPow := isiFrac * (rel.FrobeniusNorm()*rel.FrobeniusNorm()*txMW/float64(nAnt) +
				HrdFA.FrobeniusNorm()*HrdFA.FrobeniusNorm()*relayNoiseMW) / float64(nAnt)
			for d := 0; d < nAnt; d++ {
				cov[i].Set(d, d, cov[i].At(d, d)+complex(isiPow, 0))
			}
		}
	}
	if directPow > 0 && combinedPow > 0 {
		tb.ins.coherence.Observe(shard, dsp.DB(combinedPow/directPow))
	}
	res := phyrate.MIMORateMbps(p, Heff, cov, txMW, n0)
	ev.RelayMbps = res.RateMbps
	ev.RelayStreams = res.Streams
	ev.RelayRank = res.UsableStreams
}

// RunAll evaluates every grid client and returns the evaluations, one
// slot per grid point, fanned out over the parallel sweep engine
// (Config.Workers bounds the pool; results are bit-identical for any
// worker count).
func (tb *Testbed) RunAll() []Evaluation {
	defer tb.cfg.Obs.Stage("testbed.run_all")()
	grid := tb.ClientGrid()
	return par.Map(len(grid), tb.cfg.Workers, func(i int) Evaluation {
		return tb.EvaluateClient(grid[i])
	})
}

func meanSNRdB(h []complex128, txMW, n0 float64) float64 {
	var acc float64
	for _, v := range h {
		acc += absSq(v)
	}
	if len(h) == 0 || n0 <= 0 {
		return math.Inf(-1)
	}
	return dsp.DB(acc / float64(len(h)) * txMW / n0)
}

func absSq(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}

// RateForSNR is re-exported for the heatmaps.
func RateForSNR(p *ofdm.Params, snrDB float64, streams int) float64 {
	return wifi.MaxSupportedRateMbps(p, snrDB, streams)
}
