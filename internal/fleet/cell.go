package fleet

import (
	"math"

	"fastforward/internal/dsp"
	"fastforward/internal/floorplan"
	"fastforward/internal/ident"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
	"fastforward/internal/stats"
	"fastforward/internal/wifi"
)

// CellConfig describes one fleet cell: a scenario populated with a relay
// count and a client density, plus the calibration shared with the
// testbed sweeps.
type CellConfig struct {
	// Scenario is the floor plan with its AP anchor; the scenario's own
	// relay position seeds relay placement.
	Scenario floorplan.Scenario
	// Relays and Clients size the cell.
	Relays  int
	Clients int
	// Seed drives every random draw in the cell; each client derives its
	// own stream via rng.ItemSeed, so construction is order-independent.
	Seed int64
	// APTxDBm, RelayMaxTxDBm mirror the testbed link calibration
	// (testbed.DefaultConfig: 0 dBm AP, 0 dBm relay PA).
	APTxDBm       float64
	RelayMaxTxDBm float64
	// MeasureSNRdB is the fingerprint measurement SNR for the
	// identifiability probe (Sec 6.1 sweeps 5–30 dB; 25 is a strong
	// uplink preamble).
	MeasureSNRdB float64
	// Pool is the scheduler configuration.
	Pool Config
}

// DefaultCellConfig populates a cell over a scenario with the testbed's
// link calibration.
func DefaultCellConfig(sc floorplan.Scenario, relays, clients int, seed int64) CellConfig {
	return CellConfig{
		Scenario:      sc,
		Relays:        relays,
		Clients:       clients,
		Seed:          seed,
		APTxDBm:       0,
		RelayMaxTxDBm: 0,
		MeasureSNRdB:  25,
		Pool:          DefaultConfig(),
	}
}

// Cell is one built fleet instance.
type Cell struct {
	Cfg  CellConfig
	Pool *Pool
}

// sampleRate and nfft match the 20 MHz OFDM the fingerprints ride on.
const (
	cellSampleRate = 20e6
	cellNFFT       = 64
	stfCombSize    = 10
)

// BuildCell places relays, synthesizes clients with per-relay
// fingerprints and identifiability, and registers everything with a
// fresh Pool (no assignments yet — call Pool.AssignAll).
func BuildCell(cfg CellConfig) *Cell {
	reg := NewRegistry()
	positions := placeRelays(cfg.Scenario, cfg.Relays)
	for i, pos := range positions {
		apPaths := cfg.Scenario.Plan.Trace(cfg.Scenario.AP, pos, 2)
		rxAtRelayDBm := cfg.APTxDBm + floorplan.AveragePowerGainDB(apPaths)
		r := NewRelay(i, pos, cfg.Pool.MaxSessionsPerRelay, cfg.Pool.MinAmpDB,
			cfg.Pool.Degrade, rxAtRelayDBm, cfg.RelayMaxTxDBm)
		if err := reg.Add(r); err != nil {
			panic(err) // IDs are sequential; duplicates are impossible
		}
	}

	pool := NewPool(cfg.Pool, reg)
	carriers := ident.STFCarriers(stfCombSize)
	noiseFloorDBm := cfg.Pool.noiseFloorDBm()

	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		src := rng.New(rng.ItemSeed(cfg.Seed, i))
		pos := randomPoint(src, cfg.Scenario.Plan)
		apPaths := cfg.Scenario.Plan.Trace(cfg.Scenario.AP, pos, 1)
		c := &Client{
			ID:          i,
			Pos:         pos,
			DirectSNRdB: cfg.APTxDBm + floorplan.AveragePowerGainDB(apPaths) - noiseFloorDBm,
			Links:       make([]Link, 0, reg.Len()),
		}
		for _, r := range reg.Relays() {
			paths := cfg.Scenario.Plan.Trace(r.Pos, pos, 1)
			fp := ident.Fingerprint(floorplan.SISOChannel(paths, cellSampleRate, 0).
				ResponseVector(carriers, cellNFFT))
			c.Links = append(c.Links, Link{
				RelayID:    r.ID,
				GainDB:     floorplan.AveragePowerGainDB(paths),
				FP:         fp,
				AffinityDB: dsp.PowerDB(fp),
			})
		}
		clients[i] = c
	}

	// Identifiability probe: each relay's worst case is a database holding
	// every candidate client; a client is identifiable at a relay only if
	// a noisy re-measurement still classifies to it through that crowd.
	for ri, r := range reg.Relays() {
		probe := ident.NewClassifier(ident.AggressiveThreshold)
		for _, c := range clients {
			probe.Enroll(c.ID, c.Links[ri].FP)
		}
		for _, c := range clients {
			// The probe stream is client-seeded and relay-indexed so the
			// measurement is independent of construction order.
			src := rng.New(rng.ItemSeed(rng.ItemSeed(cfg.Seed, c.ID), 1000+r.ID))
			meas := ident.Measure(src, c.Links[ri].FP, cfg.MeasureSNRdB)
			id, ok := probe.Classify(meas)
			c.Links[ri].Identifiable = ok && id == c.ID
		}
	}

	for _, c := range clients {
		pool.AddClient(c)
	}
	return &Cell{Cfg: cfg, Pool: pool}
}

// placeRelays spreads n relays over the plan by farthest-point greedy
// selection over the measurement grid, anchored at the scenario's
// canonical relay position — deterministic, and n=1 reduces exactly to
// the paper's placement.
func placeRelays(sc floorplan.Scenario, n int) []floorplan.Point {
	if n <= 0 {
		return nil
	}
	chosen := make([]floorplan.Point, 0, n)
	chosen = append(chosen, sc.Relay)
	candidates := sc.Plan.Grid(1.0, 1.0)
	for len(chosen) < n {
		bestIdx, bestDist := -1, -1.0
		for i, cand := range candidates {
			d := math.Inf(1)
			for _, p := range chosen {
				dx, dy := cand.X-p.X, cand.Y-p.Y
				if dd := dx*dx + dy*dy; dd < d {
					d = dd
				}
			}
			if d > bestDist {
				bestDist, bestIdx = d, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen = append(chosen, candidates[bestIdx])
	}
	return chosen
}

// randomPoint draws a uniform position inside the plan, inset from the
// exterior walls.
func randomPoint(src *rng.Source, plan *floorplan.Plan) floorplan.Point {
	const margin = 0.5
	return floorplan.Point{
		X: margin + src.Float64()*(plan.Width-2*margin),
		Y: margin + src.Float64()*(plan.Height-2*margin),
	}
}

// Snapshot is one service-level evaluation of a cell: what every client
// gets right now, TDMA-shared per serving node.
type Snapshot struct {
	// AggregateMbps sums each serving node's mean client rate: every
	// relay is one airtime domain shared equally by its clients, and the
	// AP pool serves the refused clients the same way.
	AggregateMbps float64
	// P99Mbps is the per-client rate exceeded by 99% of clients (the
	// 1st-percentile share).
	P99Mbps float64
	// AmpsDB lists the granted amplifications of assigned clients, in
	// client-ID order (histogram feed).
	AmpsDB []float64
	// SessionsPerRelay is each relay's admitted session count, in
	// registry order.
	SessionsPerRelay []int
	// Assigned and Refused count client states.
	Assigned, Refused int
}

// Evaluate computes the cell's current service snapshot. Rates follow
// the standard amplify-and-forward two-hop SINR with the relay's first
// hop clipped by the residual self-interference its health's effective
// cancellation leaves at the client's granted amplification, constructively
// power-combined with the direct AP path (the CNF property), mapped to
// PHY rate through the 802.11 MCS table.
func (cell *Cell) Evaluate() Snapshot {
	cfg := cell.Cfg
	p := cell.Pool
	params := ofdm.Default20MHz()
	noiseFloorDBm := cfg.Pool.noiseFloorDBm()

	// groups holds each serving node's client rates: one group per relay
	// in registry order, then the AP's group of refused clients.
	relays := p.reg.Relays()
	groups := make([][]float64, len(relays)+1)
	ap := len(relays)
	relayIdx := make(map[int]int, len(relays))
	for i, r := range relays {
		relayIdx[r.ID] = i
	}

	var snap Snapshot
	clientRates := make([]float64, 0, len(p.clients))
	for _, c := range p.clients {
		if c.Assigned == Refused {
			rate := wifi.MaxSupportedRateMbps(params, c.DirectSNRdB, 1)
			groups[ap] = append(groups[ap], rate)
			clientRates = append(clientRates, rate)
			snap.Refused++
			continue
		}
		ri := relayIdx[c.Assigned]
		r := relays[ri]
		l, _ := c.Link(c.Assigned)

		// First hop: AP→relay SNR, clipped by the residual
		// self-interference. The relay transmits at rx + A and cancels
		// C of it, so the residual sits C − A below the received signal
		// (the testbed's relayNoiseMW).
		g1DB := r.RxAtRelayDBm - noiseFloorDBm
		if cDB := r.EffectiveCancellationDB(cfg.Pool.BaseCancellationDB) - c.Grant.AmpDB; cDB < g1DB {
			g1DB = cDB
		}
		// Second hop: granted amplification, PA-capped by construction.
		g2DB := r.RxAtRelayDBm + c.Grant.AmpDB + l.GainDB - noiseFloorDBm
		g1Lin := dsp.Linear(g1DB)
		g2Lin := dsp.Linear(g2DB)
		relayLin := g1Lin * g2Lin / (g1Lin + g2Lin + 1) // AF cascade
		directLin := dsp.Linear(c.DirectSNRdB)
		snrDB := dsp.DB(relayLin + directLin) // constructive combining
		rate := wifi.MaxSupportedRateMbps(params, snrDB, 1)

		groups[ri] = append(groups[ri], rate)
		clientRates = append(clientRates, rate)
		snap.AmpsDB = append(snap.AmpsDB, c.Grant.AmpDB)
		snap.Assigned++
	}

	// TDMA shares: each serving node splits its airtime equally.
	shares := make([]float64, 0, len(clientRates))
	for _, rates := range groups {
		if len(rates) == 0 {
			continue
		}
		var mean float64
		for _, v := range rates {
			mean += v
		}
		mean /= float64(len(rates))
		snap.AggregateMbps += mean
		for range rates {
			shares = append(shares, mean/float64(len(rates)))
		}
	}
	if len(shares) > 0 {
		snap.P99Mbps = stats.Percentile(shares, 1)
	}
	snap.SessionsPerRelay = make([]int, len(relays))
	for i, r := range relays {
		snap.SessionsPerRelay[i] = r.ep.Sessions()
	}
	return snap
}
