package fleet

import (
	"fmt"
	"strings"

	"fastforward/internal/floorplan"
	"fastforward/internal/obs"
	"fastforward/internal/par"
	"fastforward/internal/rng"
)

// SweepConfig drives the fleet figure: the relay-count × client-density
// grid over one scenario, with a forced degradation event per cell.
type SweepConfig struct {
	// ScenarioName selects the floor plan (floorplan.Scenarios).
	ScenarioName string
	// RelayCounts and ClientCounts span the grid.
	RelayCounts  []int
	ClientCounts []int
	// Seed is the base seed; cell i derives rng.ItemSeed(Seed, i).
	Seed int64
	// FailSeverity is the ladder rank the forced event drives the
	// busiest relay to (default severe).
	FailSeverity int
	// Workers bounds the parallel sweep pool (internal/par): 1 is the
	// serial reference, 0 one worker per CPU. Results are bit-identical
	// for every value.
	Workers int
	// ServeWire routes every cell's admission through live ffrelayd
	// daemons on loopback TCP (fleet.ProcessPool) instead of in-process
	// gates. Books and fleet.* metrics are identical to local mode; the
	// wire path additionally bit-verifies one admitted session per cell
	// against its local replica chain and records the fleet.wire.*
	// metrics.
	ServeWire bool
	// WireExec, when ServeWire is set, is a built cmd/ffrelayd binary to
	// spawn per relay (empty: in-process relayd.Server instances).
	WireExec string
	// Obs, when non-nil, receives the fleet.* metrics, recorded
	// order-independently (per-cell shards).
	Obs *obs.Registry
	// Pool tunes the scheduler in every cell.
	Pool Config
}

// DefaultSweepConfig is the published fleet sweep: the home scenario,
// 1–8 relays × 50–200 clients, a severe forced failure.
func DefaultSweepConfig(seed int64) SweepConfig {
	return SweepConfig{
		ScenarioName: "home",
		RelayCounts:  []int{1, 2, 4, 8},
		ClientCounts: []int{50, 100, 200},
		Seed:         seed,
		FailSeverity: 3,
		Pool:         DefaultConfig(),
	}
}

// CellResult is one grid cell's outcome: the healthy service level, then
// the same cell after the forced degradation event and rebalance.
type CellResult struct {
	Scenario string
	Relays   int
	Clients  int

	// Healthy state after AssignAll.
	Assigned int
	Refused  int
	Spilled  int
	Healthy  Snapshot

	// Forced event: the busiest relay driven to FailSeverity, then one
	// Rebalance pass.
	FailedRelayID int
	Migrations    int
	Stranded      int
	Failed        Snapshot
}

// SweepResult is the full grid in row-major order (relay counts outer,
// client counts inner).
type SweepResult struct {
	Scenario string
	Cells    []CellResult
}

// RunSweep executes the fleet sweep. Each cell builds its own pool,
// assigns every client, evaluates, forces the busiest relay to
// FailSeverity, rebalances, and evaluates again. Cells are independent
// work items fanned out through internal/par; every random draw derives
// from the cell's ItemSeed, so the result is bit-identical for any
// Workers count.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	sc, err := scenarioByName(cfg.ScenarioName)
	if err != nil {
		return nil, err
	}
	if len(cfg.RelayCounts) == 0 || len(cfg.ClientCounts) == 0 {
		return nil, fmt.Errorf("fleet: empty sweep grid")
	}
	if cfg.FailSeverity <= 0 {
		cfg.FailSeverity = 3
	}

	type handles struct {
		cells, relays, clients       *obs.Counter
		assigned, refused, spilled   *obs.Counter
		migrations, stranded         *obs.Counter
		ampDB, relaySessions         *obs.Histogram
		aggregateMbps, p99ClientMbps *obs.Histogram
	}
	var m *handles
	if cfg.Obs != nil {
		m = &handles{
			cells:         cfg.Obs.Counter("fleet.cells", "cells"),
			relays:        cfg.Obs.Counter("fleet.relays", "relays"),
			clients:       cfg.Obs.Counter("fleet.clients", "clients"),
			assigned:      cfg.Obs.Counter("fleet.assigned", "clients"),
			refused:       cfg.Obs.Counter("fleet.refused", "clients"),
			spilled:       cfg.Obs.Counter("fleet.spilled", "clients"),
			migrations:    cfg.Obs.Counter("fleet.migrations", "clients"),
			stranded:      cfg.Obs.Counter("fleet.stranded", "clients"),
			ampDB:         cfg.Obs.Histogram("fleet.amp_db", "dB", obs.LinearBuckets(0, 5, 12)),
			relaySessions: cfg.Obs.Histogram("fleet.relay_sessions", "sessions", obs.LinearBuckets(0, 16, 16)),
			aggregateMbps: cfg.Obs.Histogram("fleet.aggregate_mbps", "Mbps", obs.LinearBuckets(0, 25, 16)),
			p99ClientMbps: cfg.Obs.Histogram("fleet.p99_client_mbps", "Mbps", obs.LinearBuckets(0, 0.25, 16)),
		}
	}

	n := len(cfg.RelayCounts) * len(cfg.ClientCounts)
	res := &SweepResult{Scenario: sc.Name, Cells: make([]CellResult, n)}
	errs := make([]error, n)
	par.ForEach(n, cfg.Workers, func(i int) {
		nRelays := cfg.RelayCounts[i/len(cfg.ClientCounts)]
		nClients := cfg.ClientCounts[i%len(cfg.ClientCounts)]
		cellSeed := rng.ItemSeed(cfg.Seed, i)

		ccfg := DefaultCellConfig(sc, nRelays, nClients, cellSeed)
		ccfg.Pool = cfg.Pool
		cell := BuildCell(ccfg)
		pool := cell.Pool

		if cfg.ServeWire {
			pp, err := NewProcessPool(pool.Registry(), ProcessPoolConfig{
				Pool:  ccfg.Pool,
				Spec:  DefaultWireSpec(),
				Exec:  cfg.WireExec,
				Obs:   cfg.Obs,
				Shard: obs.ShardForSeed(cellSeed),
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer pp.Close()
		}

		pool.AssignAll()
		healthy := cell.Evaluate()

		if cfg.ServeWire {
			if err := verifyOneWireSession(pool); err != nil {
				errs[i] = err
				return
			}
		}

		cr := CellResult{
			Scenario: sc.Name,
			Relays:   nRelays,
			Clients:  nClients,
			Assigned: healthy.Assigned,
			Refused:  healthy.Refused,
			Spilled:  pool.Spilled,
			Healthy:  healthy,
		}

		// Forced event: the busiest relay (most sessions, lowest ID on
		// ties) degrades to FailSeverity; one rebalance pass follows.
		failID := busiestRelay(pool)
		pool.SetHealth(failID, cfg.FailSeverity)
		pool.Rebalance()
		cr.FailedRelayID = failID
		cr.Migrations = pool.Migrations
		cr.Stranded = strandedCount(pool)
		cr.Failed = cell.Evaluate()
		res.Cells[i] = cr

		if m != nil {
			shard := obs.ShardForSeed(cellSeed)
			m.cells.Inc(shard)
			m.relays.Add(shard, uint64(nRelays))
			m.clients.Add(shard, uint64(nClients))
			m.assigned.Add(shard, uint64(cr.Assigned))
			m.refused.Add(shard, uint64(cr.Refused))
			m.spilled.Add(shard, uint64(cr.Spilled))
			m.migrations.Add(shard, uint64(cr.Migrations))
			m.stranded.Add(shard, uint64(cr.Stranded))
			for _, a := range healthy.AmpsDB {
				m.ampDB.Observe(shard, a)
			}
			for _, s := range healthy.SessionsPerRelay {
				m.relaySessions.Observe(shard, float64(s))
			}
			m.aggregateMbps.Observe(shard, healthy.AggregateMbps)
			m.p99ClientMbps.Observe(shard, healthy.P99Mbps)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyWireBlocks is the per-cell bit-verification depth: enough to
// exercise the daemon's served block path without dominating the sweep.
const verifyWireBlocks = 2

// verifyOneWireSession streams seeded blocks through the first assigned
// client's live session and requires bit-identical output versus the
// local replica chain — proof each wire cell's admissions are backed by
// a real serving pipeline, not just an admission ledger.
func verifyOneWireSession(p *Pool) error {
	for _, c := range p.Clients() {
		if c.Assigned == Refused {
			continue
		}
		r, ok := p.Registry().Get(c.Assigned)
		if !ok {
			continue
		}
		ep, ok := r.Endpoint().(*WireEndpoint)
		if !ok {
			return fmt.Errorf("fleet: relay %d is not wire-served", c.Assigned)
		}
		return ep.VerifySession(sessionKey(c.ID), verifyWireBlocks)
	}
	return nil // a cell where every client was refused has nothing to verify
}

// busiestRelay returns the ID of the relay holding the most sessions
// (lowest ID on ties).
func busiestRelay(p *Pool) int {
	bestID, bestN := 0, -1
	for _, r := range p.Registry().Relays() {
		if n := r.ep.Sessions(); n > bestN {
			bestID, bestN = r.ID, n
		}
	}
	return bestID
}

// strandedCount counts clients stuck on non-live relays.
func strandedCount(p *Pool) int {
	n := 0
	for _, c := range p.Clients() {
		if c.Stranded {
			n++
		}
	}
	return n
}

// scenarioByName resolves a floorplan scenario by name.
func scenarioByName(name string) (floorplan.Scenario, error) {
	names := make([]string, 0, 4)
	for _, sc := range floorplan.Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return floorplan.Scenario{}, fmt.Errorf("fleet: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
}
