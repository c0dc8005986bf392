package fleet

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastforward/internal/obs"
	"fastforward/internal/rng"
)

// serveTestSeed matches the fleet-smoke seed: a grid where refusals,
// spills, migrations, and strandings all naturally occur, so the wire
// REFUSE → spill mapping is actually exercised.
const serveTestSeed = 2

// runServeCell runs one seeded cell end to end — assignment, healthy
// evaluation, forced failure, rebalance — against either local gates or
// live in-process daemons, returning the books and snapshots at both
// stages. In wire mode it also bit-verifies one admitted session.
func runServeCell(t *testing.T, wire bool) (healthyBooks, failedBooks Books, healthy, failed Snapshot) {
	t.Helper()
	sc, err := scenarioByName("home")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := DefaultCellConfig(sc, 3, 40, rng.ItemSeed(serveTestSeed, 3))
	// A session cap well under the client count forces genuine
	// session_limit REFUSEs (not just noise-rule walk-backs), so the
	// wire's REFUSE → spill mapping is on the critical path.
	ccfg.Pool.MaxSessionsPerRelay = 8
	cell := BuildCell(ccfg)
	pool := cell.Pool

	if wire {
		pp, err := NewProcessPool(pool.Registry(), ProcessPoolConfig{
			Pool: ccfg.Pool,
			Spec: DefaultWireSpec(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pp.Close()
	}

	pool.AssignAll()
	healthyBooks = pool.Books()
	healthy = cell.Evaluate()

	if wire {
		if err := verifyOneWireSession(pool); err != nil {
			t.Fatalf("wire session bit-verification: %v", err)
		}
	}

	failID := busiestRelay(pool)
	pool.SetHealth(failID, 3)
	pool.Rebalance()
	failedBooks = pool.Books()
	failed = cell.Evaluate()
	return healthyBooks, failedBooks, healthy, failed
}

// TestServeModeWireMatchesLocal is the seam's acceptance test: the same
// seeded cell run against live ffrelayd daemons over loopback TCP books
// exactly the same assignments, spills, and strandings as the in-process
// gates, with at least one admitted wire session's output bit-verified
// against its local replica chain (runServeCell).
func TestServeModeWireMatchesLocal(t *testing.T) {
	lh, lf, lhs, lfs := runServeCell(t, false)
	wh, wf, whs, wfs := runServeCell(t, true)

	if !reflect.DeepEqual(lh, wh) {
		t.Errorf("healthy books differ between serve modes:\nlocal %+v\nwire  %+v", lh, wh)
	}
	if !reflect.DeepEqual(lf, wf) {
		t.Errorf("post-failure books differ between serve modes:\nlocal %+v\nwire  %+v", lf, wf)
	}
	if !reflect.DeepEqual(lhs, whs) {
		t.Errorf("healthy snapshots differ between serve modes:\nlocal %+v\nwire  %+v", lhs, whs)
	}
	if !reflect.DeepEqual(lfs, wfs) {
		t.Errorf("post-failure snapshots differ between serve modes:\nlocal %+v\nwire  %+v", lfs, wfs)
	}
	if lh.Grants == 0 {
		t.Fatal("cell booked no grants; the comparison is vacuous")
	}
}

// sweepMetrics runs the smoke's sweep grid in the given mode and returns
// the resulting obs metrics.
func sweepMetrics(t *testing.T, wire bool) map[string]obs.MetricSnapshot {
	t.Helper()
	reg := obs.New()
	cfg := DefaultSweepConfig(serveTestSeed)
	cfg.RelayCounts = []int{1, 3}
	cfg.ClientCounts = []int{20, 40}
	cfg.Workers = 4
	cfg.Obs = reg
	cfg.ServeWire = wire
	cfg.Pool.MaxSessionsPerRelay = 8 // provoke session_limit REFUSEs, not just noise-rule spills
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot().Metrics
}

// TestServeModeSweepManifestsMatch diffs the whole sweep's obs manifest
// between modes: every fleet.* metric must be bit-identical; only the
// fleet.wire.* transport metrics may (and must) appear in wire mode.
func TestServeModeSweepManifestsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("wire sweep spawns a daemon per relay per cell")
	}
	local := sweepMetrics(t, false)
	wire := sweepMetrics(t, true)

	wireOnly := make(map[string]obs.MetricSnapshot)
	for name, ms := range wire {
		if strings.HasPrefix(name, "fleet.wire.") {
			wireOnly[name] = ms
			delete(wire, name)
		}
	}
	if !reflect.DeepEqual(local, wire) {
		for name, lm := range local {
			if wm, ok := wire[name]; !ok || !reflect.DeepEqual(lm, wm) {
				t.Errorf("metric %s differs: local %+v, wire %+v", name, lm, wire[name])
			}
		}
		for name := range wire {
			if _, ok := local[name]; !ok {
				t.Errorf("metric %s present only in wire mode", name)
			}
		}
	}
	counterVal := func(m map[string]obs.MetricSnapshot, name string) float64 {
		ms, ok := m[name]
		if !ok || ms.Value == nil {
			return 0
		}
		return *ms.Value
	}
	if counterVal(local, "fleet.spilled") == 0 {
		t.Error("sweep grid produced no spills; the REFUSE mapping went unexercised")
	}
	for _, name := range []string{"fleet.wire.hellos", "fleet.wire.accepted", "fleet.wire.refused",
		"fleet.wire.releases", "fleet.wire.load_queries", "fleet.wire.verified_sessions", "fleet.wire.blocks"} {
		if counterVal(wireOnly, name) == 0 {
			t.Errorf("%s = 0, want nonzero in wire mode", name)
		}
	}
	if n := counterVal(wireOnly, "fleet.wire.io_errors"); n != 0 {
		t.Errorf("fleet.wire.io_errors = %v, want 0 (loopback daemons must not flap)", n)
	}
	// Connections outlive their conversations: a dial per admission would
	// mean they are not reused.
	if d, h := counterVal(wireOnly, "fleet.wire.dials"), counterVal(wireOnly, "fleet.wire.hellos"); !(d > 0 && d < h) {
		t.Errorf("fleet.wire.dials = %v for %v hellos, want fewer dials than hellos", d, h)
	}
}

// TestProcessPoolCloseRightAfterSpawn: a pool closed before its daemons'
// accept loops have started leaves nothing running — each Serve that
// starts after its server closed returns at once — so the goroutine count
// comes back to where it was.
func TestProcessPoolCloseRightAfterSpawn(t *testing.T) {
	sc, err := scenarioByName("home")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := DefaultCellConfig(sc, 4, 10, rng.ItemSeed(serveTestSeed, 1))
	reg := BuildCell(ccfg).Pool.Registry()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		pp, err := NewProcessPool(reg, ProcessPoolConfig{Pool: ccfg.Pool, Spec: DefaultWireSpec()})
		if err != nil {
			t.Fatal(err)
		}
		pp.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after 50 pools closed, %d before", n, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
