package main

import (
	"fmt"
	"reflect"
	"time"

	"fastforward/bench/kit"
	"fastforward/internal/fleet"
	"fastforward/internal/floorplan"
	"fastforward/internal/relay"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
	"fastforward/internal/stats"
)

// The fleet workload runs fleet cells one after another, cycling the
// published grid of relay counts × client counts over the home plan with
// a 16-session cap per relay, each cell served by in-process daemons
// from fleet.ProcessPool. A cell assigns every client, evaluates, drives
// its busiest relay to severe and rebalances — relayd's control plane
// (HELLO/ACCEPT/REFUSE, QUERY/INFO, DONE/STATS) with no timed DSP. The
// same cell is then replayed against local gates: its books and
// snapshots must match the wire run exactly.
var (
	fleetRelayCounts  = []int{1, 2, 4, 8}
	fleetClientCounts = []int{50, 100, 200}
)

const (
	fleetScenario      = "home"
	fleetMaxSessions   = 16
	fleetFailSeverity  = 3 // severe
	fleetVerifyBlocks  = 2
	fleetCellsPerCycle = 12
	fleetAdmitSpan     = "fleet.Endpoint.Admit"
	fleetReleaseSpan   = "fleet.Endpoint.Release"
	fleetQuerySpan     = "fleet.Endpoint.Query"
	fleetRebalanceSpan = "fleet.Pool.Rebalance"
)

// endpointStats accumulates what the timing decorators saw.
type endpointStats struct {
	admitUS           []float64
	queries           int
	refused           map[string]int
	transportFailures int
	schedNS           int64
	placements        uint64
	// tr records spans when set; parent and id are the scheduler call
	// in progress.
	tr     *kit.Tracer
	parent int
	id     uint64
}

func newEndpointStats() *endpointStats {
	return &endpointStats{refused: map[string]int{}, parent: -1}
}

// timedEndpoint decorates a relay's admission endpoint, installed with
// Relay.SetEndpoint: it times every call, counts refusals by code, and
// records a span per call under the scheduler call that caused it.
type timedEndpoint struct {
	inner fleet.Endpoint
	st    *endpointStats
}

func (t timedEndpoint) Admit(key string, sb relay.SessionBudget) (relay.AmpDecision, bool, *relayd.Refuse) {
	sp := t.st.tr.Begin(t.st.id, fleetAdmitSpan, t.st.parent)
	t0 := time.Now()
	dec, degraded, ref := t.inner.Admit(key, sb)
	dt := time.Since(t0)
	t.st.tr.End(sp)
	t.st.admitUS = append(t.st.admitUS, float64(dt)/1e3)
	if ref != nil {
		t.st.refused[ref.Code]++
		if ref.Code == relayd.RefuseUnreachable || ref.Code == relayd.RefuseProtocol {
			t.st.transportFailures++
		}
	}
	return dec, degraded, ref
}

func (t timedEndpoint) Release(key string) bool {
	sp := t.st.tr.Begin(t.st.id, fleetReleaseSpan, t.st.parent)
	ok := t.inner.Release(key)
	t.st.tr.End(sp)
	return ok
}

func (t timedEndpoint) query(f func()) {
	sp := t.st.tr.Begin(t.st.id, fleetQuerySpan, t.st.parent)
	f()
	t.st.tr.End(sp)
	t.st.queries++
}

func (t timedEndpoint) ResidualLoad() (l float64) {
	t.query(func() { l = t.inner.ResidualLoad() })
	return l
}

func (t timedEndpoint) Sessions() (n int) {
	t.query(func() { n = t.inner.Sessions() })
	return n
}

func (t timedEndpoint) MaxSessions() (n int) {
	t.query(func() { n = t.inner.MaxSessions() })
	return n
}

// cellConfig is cell c of the cycle, seeded from the run seed.
func cellConfig(sc floorplan.Scenario, seed int64, c int) fleet.CellConfig {
	relays := fleetRelayCounts[(c/len(fleetClientCounts))%len(fleetRelayCounts)]
	clients := fleetClientCounts[c%len(fleetClientCounts)]
	cfg := fleet.DefaultCellConfig(sc, relays, clients, rng.ItemSeed(seed, c))
	cfg.Pool.MaxSessionsPerRelay = fleetMaxSessions
	return cfg
}

// served is a built cell with its daemons spawned, the fleet workload's
// set-up.
type served struct {
	cell  *fleet.Cell
	pp    *fleet.ProcessPool
	build time.Duration
	spawn time.Duration
}

func serveCell(cfg fleet.CellConfig) (*served, error) {
	t0 := time.Now()
	cell := fleet.BuildCell(cfg)
	t1 := time.Now()
	pp, err := fleet.NewProcessPool(cell.Pool.Registry(), fleet.ProcessPoolConfig{Pool: cfg.Pool, Spec: fleet.DefaultWireSpec()})
	if err != nil {
		return nil, err
	}
	return &served{cell: cell, pp: pp, build: t1.Sub(t0), spawn: time.Since(t1)}, nil
}

// cellRun is what the scheduler decided in one cell.
type cellRun struct {
	healthyBooks, failedBooks fleet.Books
	healthy, failed           fleet.Snapshot
}

// schedule runs the cell's scheduling — assign, evaluate, fail the
// busiest relay, rebalance, evaluate — through timing decorators on
// every relay, and charges its wall time to st. In wire mode it also
// bit-verifies one admitted session between the healthy and the failure
// half (untimed).
func schedule(cell *fleet.Cell, st *endpointStats, verify func() error) (cellRun, error) {
	pool := cell.Pool
	for _, r := range pool.Registry().Relays() {
		r.SetEndpoint(timedEndpoint{inner: r.Endpoint(), st: st})
	}
	var run cellRun
	call := func(name string, f func()) {
		st.id++
		st.parent = st.tr.Begin(st.id, name, -1)
		t0 := time.Now()
		f()
		dt := time.Since(t0)
		st.tr.End(st.parent)
		st.parent = -1
		st.schedNS += int64(dt)
	}
	call("fleet.Pool.AssignAll", pool.AssignAll)
	call("fleet.Cell.Evaluate", func() { run.healthy = cell.Evaluate() })
	run.healthyBooks = pool.Books()
	if verify != nil {
		if err := verify(); err != nil {
			return run, err
		}
	}
	var failID int
	call("fleet.busiest", func() { failID = busiest(pool) })
	call(fleetRebalanceSpan, func() {
		pool.SetHealth(failID, fleetFailSeverity)
		pool.Rebalance()
	})
	call("fleet.Cell.Evaluate", func() { run.failed = cell.Evaluate() })
	run.failedBooks = pool.Books()
	st.placements += run.failedBooks.Grants
	return run, nil
}

// busiest returns the relay holding the most sessions, lowest ID on ties,
// asking each relay's endpoint.
func busiest(pool *fleet.Pool) int {
	bestID, bestN := 0, -1
	for _, r := range pool.Registry().Relays() {
		if n := r.Endpoint().Sessions(); n > bestN {
			bestID, bestN = r.ID, n
		}
	}
	return bestID
}

// verifyOne streams seeded blocks through the first admitted wire
// session and requires bit-identical output from its solo chain.
func verifyOne(pool *fleet.Pool, pp *fleet.ProcessPool) func() error {
	return func() error {
		for _, r := range pool.Registry().Relays() {
			ep, ok := pp.Endpoint(r.ID)
			if !ok {
				return fmt.Errorf("relay %d has no daemon", r.ID)
			}
			if keys := ep.ActiveSessions(); len(keys) > 0 {
				return ep.VerifySession(keys[0], fleetVerifyBlocks)
			}
		}
		return nil
	}
}

// fleetRun is what a fleet phase measured, its times scaled to the
// nominal machine speed cycle by cycle.
type fleetRun struct {
	admitUS []float64 // wire admissions, scaled
	rates   []float64 // each cycle's wire admissions per scheduler second, scaled
	cycles  int
	proc    kit.ProcTotals
}

// fleetPhase runs whole cycles of cells from index first — at least one,
// and another only while the last one's duration still fits in dur —
// with a speed probe after each. Every wire cell is compared with its
// local replay; the first mismatch ends the phase.
func fleetPhase(clock *speedClock, sc floorplan.Scenario, seed int64, first int, dur time.Duration,
	wire, local *endpointStats) (fleetRun, int, error) {
	var run fleetRun
	start := time.Now()
	c := first
	var last time.Duration
	for run.cycles == 0 || time.Since(start)+last <= dur {
		admits0, sched0 := len(wire.admitUS), wire.schedNS
		before := kit.ReadProc()
		for end := c + fleetCellsPerCycle; c < end; c++ {
			if err := fleetCell(sc, seed, c, wire, local); err != nil {
				return run, c, err
			}
		}
		used := kit.ReadProc().Since(before)
		f, err := clock.segment()
		if err != nil {
			return run, c, err
		}
		for _, x := range wire.admitUS[admits0:] {
			run.admitUS = append(run.admitUS, x*f)
		}
		admits := float64(len(wire.admitUS) - admits0)
		run.rates = append(run.rates, admits/(float64(wire.schedNS-sched0)/1e9)/f)
		run.cycles++
		run.proc.Add(used, f)
		last = used.Wall
	}
	return run, c, nil
}

// fleetCell runs cell c over the wire, then against local gates, and
// requires the same books and snapshots.
func fleetCell(sc floorplan.Scenario, seed int64, c int, wire, local *endpointStats) error {
	cfg := cellConfig(sc, seed, c)
	s, err := serveCell(cfg)
	if err != nil {
		return err
	}
	got, err := schedule(s.cell, wire, verifyOne(s.cell.Pool, s.pp))
	s.pp.Close()
	if err != nil {
		return fmt.Errorf("cell %d: %w", c, err)
	}
	want, err := schedule(fleet.BuildCell(cfg), local, nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cell %d (%d relays, %d clients): wire books differ from the local replay",
			c, cfg.Relays, cfg.Clients)
	}
	return nil
}

func runFleet(e env) (outcome, error) {
	var sc floorplan.Scenario
	for _, s := range floorplan.Scenarios() {
		if s.Name == fleetScenario {
			sc = s
		}
	}
	// Set-up is the first cell's: BuildCell and NewProcessPool.
	var spawnShares []float64
	clock := newSpeedClock(e.nproc, func() (time.Duration, error) {
		s, err := serveCell(cellConfig(sc, e.seed, 0))
		if err != nil {
			return 0, err
		}
		s.pp.Close()
		total := s.build + s.spawn
		spawnShares = append(spawnShares, kit.Ratio(float64(s.spawn), float64(total)))
		return total, nil
	})
	if _, err := clock.segment(); err != nil {
		return outcome{}, err
	}

	v := map[string]float64{}
	wire, local := newEndpointStats(), newEndpointStats()
	var spans []kit.Span
	var phaseErr error
	if !e.traced {
		var run fleetRun
		run, _, phaseErr = fleetPhase(clock, sc, e.seed, 0, e.window(1), wire, local)
		v["setup_s"] = clock.setupS()
		v["ops_per_s"] = stats.Median(run.rates)
		v["op_p50_us"] = stats.Median(run.admitUS)
		v["mem_rss_mb"] = clock.rss()
		fmt.Printf("# unscaled: ops_per_s %g, op_p50_us %g over %d admissions; mean reference pass %g us\n",
			kit.Ratio(float64(len(wire.admitUS)), float64(wire.schedNS)/1e9),
			stats.Median(wire.admitUS), len(wire.admitUS), clock.meanPass())
	} else {
		ref, next, err := fleetPhase(clock, sc, e.seed, 0, e.window(0.5), wire, local)
		phaseErr = err
		ref.proc.Put(v, float64(len(ref.admitUS)), e.nproc)
		v["op_p99_us"] = stats.Percentile(ref.admitUS, 99)

		traced := newEndpointStats()
		traced.tr = kit.NewTracer(time.Now())
		var tr fleetRun
		if phaseErr == nil {
			tr, _, phaseErr = fleetPhase(clock, sc, e.seed, next, e.window(0.5), traced, newEndpointStats())
		}
		spans = traced.tr.Spans
		v["trace.overhead_frac"] = stats.Median(tr.admitUS)/stats.Median(ref.admitUS) - 1
		splitFleet(v, spans)
		// Both medians are unscaled and from the same cycles.
		v["fleet.gate_admit_frac"] = stats.Median(local.admitUS) / stats.Median(wire.admitUS)
		v["fleet.queries_per_admit"] = kit.Ratio(float64(wire.queries), float64(len(wire.admitUS)))
		v["fleet.admits_per_placement"] = kit.Ratio(float64(len(wire.admitUS)), float64(wire.placements))
		v["fleet.pool_spawn_frac"] = stats.Median(spawnShares)
		refusals, err := firstCycleRefusals(sc, e.seed)
		if err != nil {
			return outcome{}, err
		}
		v["fleet.refused.session_limit"] = float64(refusals[relayd.RefuseSessionLimit])
		v["fleet.refused.budget"] = float64(refusals[relayd.RefuseBudget])
		v["ref.pass_us"] = clock.meanPass()
		v["proc.peak_rss_mb"] = kit.PeakRSSMB()
		zero(v, servedLayers, sweepLayers)
	}
	if phaseErr != nil {
		fmt.Printf("# fleet gate: %v\n", phaseErr)
	}
	return outcome{
		res: kit.Result{Correct: phaseErr == nil, Attempted: int64(len(wire.admitUS)),
			Failed: int64(wire.transportFailures), Values: v},
		spans: spans,
	}, nil
}

// splitFleet splits the traced scheduler time into endpoint calls by kind
// and the scheduler's own work, and reports the failover share.
func splitFleet(v map[string]float64, spans []kit.Span) {
	tot := kit.Totals(spans)
	var sched, self float64
	selfs := kit.SelfTimes(spans)
	for _, s := range spans {
		if s.Parent < 0 {
			sched += float64(s.End - s.Start)
		}
	}
	for _, name := range []string{"fleet.Pool.AssignAll", "fleet.Cell.Evaluate", "fleet.busiest", fleetRebalanceSpan} {
		self += float64(selfs[name])
	}
	v["fleet.admit_frac"] = kit.Ratio(float64(tot[fleetAdmitSpan]), sched)
	v["fleet.query_frac"] = kit.Ratio(float64(tot[fleetQuerySpan]), sched)
	v["fleet.release_frac"] = kit.Ratio(float64(tot[fleetReleaseSpan]), sched)
	v["fleet.assign_self_frac"] = kit.Ratio(self, sched)
	v["fleet.failover_frac"] = kit.Ratio(float64(tot[fleetRebalanceSpan]), sched)
}

// firstCycleRefusals counts the refusal codes of one cycle of cells
// replayed against local gates — the same verdicts the wire returns, so
// the counts are exact for the seed.
func firstCycleRefusals(sc floorplan.Scenario, seed int64) (map[string]int, error) {
	st := newEndpointStats()
	for c := 0; c < fleetCellsPerCycle; c++ {
		if _, err := schedule(fleet.BuildCell(cellConfig(sc, seed, c)), st, nil); err != nil {
			return nil, err
		}
	}
	return st.refused, nil
}
