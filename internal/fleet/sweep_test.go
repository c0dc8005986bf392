package fleet

import (
	"reflect"
	"testing"

	"fastforward/internal/obs"
)

// smallSweepConfig is the test grid: small enough for -race, large
// enough that every cell sees spills, a forced failure, and migrations.
func smallSweepConfig(seed int64) SweepConfig {
	cfg := DefaultSweepConfig(seed)
	cfg.RelayCounts = []int{1, 3}
	cfg.ClientCounts = []int{20, 40}
	return cfg
}

// TestRunSweepParallelMatchesSerial is the fleet determinism property:
// the full sweep result — assignments, spills, the forced rebalance, and
// every service snapshot — is bit-identical for any worker count, and so
// is the deterministic metrics section of the manifest.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	run := func(workers int) (*SweepResult, obs.Snapshot) {
		cfg := smallSweepConfig(1234)
		cfg.Workers = workers
		cfg.Obs = obs.New()
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, cfg.Obs.Snapshot()
	}

	serial, serialSnap := run(1)

	// The determinism claim must cover the post-failure state too: if no
	// cell migrated, the test would silently stop exercising rebalance.
	migrated := 0
	for _, c := range serial.Cells {
		migrated += c.Migrations
	}
	if migrated == 0 {
		t.Fatalf("test grid produced no migrations; rebalance path not covered")
	}

	for _, workers := range []int{2, 8, 0} {
		par, parSnap := run(workers)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: sweep result differs from serial reference", workers)
		}
		// Timings are wall-clock diagnostics; only the metrics map is
		// contractually deterministic.
		if !reflect.DeepEqual(serialSnap.Metrics, parSnap.Metrics) {
			t.Errorf("workers=%d: metric snapshot differs from serial reference", workers)
		}
	}
}

// TestRunSweepIdealFailureChangesNothing drives the busiest relay to
// rank 0 (ideal): nothing degrades, so no client migrates or is
// stranded and every cell's service after the event equals its healthy
// service.
func TestRunSweepIdealFailureChangesNothing(t *testing.T) {
	cfg := smallSweepConfig(2)
	cfg.FailSeverity = 0
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Migrations != 0 || c.Stranded != 0 || !reflect.DeepEqual(c.Failed, c.Healthy) {
			t.Errorf("%d relays x %d clients: %d migrations, %d stranded, failed == healthy %v; want 0, 0, true",
				c.Relays, c.Clients, c.Migrations, c.Stranded, reflect.DeepEqual(c.Failed, c.Healthy))
		}
	}
}

// TestRunSweepDarkRelayCostsRate fails the only relay of a one-relay
// cell at severe: the clients left stranded on it are served by a relay
// whose residual self-interference rises with its transmit power, so
// the cell's service after the event must fall below its healthy
// service.
func TestRunSweepDarkRelayCostsRate(t *testing.T) {
	res, err := RunSweep(smallSweepConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range res.Cells {
		if c.Relays != 1 {
			continue
		}
		if c.Stranded == 0 {
			t.Fatalf("1 relay x %d clients: no client stranded by a severe failure", c.Clients)
		}
		if c.Failed.AggregateMbps >= c.Healthy.AggregateMbps {
			t.Errorf("1 relay x %d clients, %d stranded: aggregate %.3f Mbps after the failure, %.3f healthy; want lower",
				c.Clients, c.Stranded, c.Failed.AggregateMbps, c.Healthy.AggregateMbps)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("test grid has no one-relay cell")
	}
}

func TestRunSweepUnknownScenario(t *testing.T) {
	cfg := DefaultSweepConfig(1)
	cfg.ScenarioName = "no-such-floor"
	if _, err := RunSweep(cfg); err == nil {
		t.Fatalf("unknown scenario accepted")
	}
}

func TestRunSweepEmptyGrid(t *testing.T) {
	cfg := DefaultSweepConfig(1)
	cfg.RelayCounts = nil
	if _, err := RunSweep(cfg); err == nil {
		t.Fatalf("empty grid accepted")
	}
}

// TestRunSweepRecordsMetrics pins the fleet.* namespace: every metric in
// OBSERVABILITY.md's fleet section must appear in the manifest after one
// sweep, with the counters consistent with the returned cells.
func TestRunSweepRecordsMetrics(t *testing.T) {
	cfg := smallSweepConfig(77)
	cfg.Workers = 1
	cfg.Obs = obs.New()
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Snapshot()
	names := []string{
		"fleet.cells", "fleet.relays", "fleet.clients",
		"fleet.assigned", "fleet.refused", "fleet.spilled",
		"fleet.migrations", "fleet.stranded",
		"fleet.amp_db", "fleet.relay_sessions",
		"fleet.aggregate_mbps", "fleet.p99_client_mbps",
	}
	for _, n := range names {
		if _, ok := snap.Metrics[n]; !ok {
			t.Errorf("metric %s missing from manifest", n)
		}
	}
	var wantAssigned uint64
	for _, c := range res.Cells {
		wantAssigned += uint64(c.Assigned)
	}
	if got := snap.Metrics["fleet.cells"].Value; got == nil || *got != float64(len(res.Cells)) {
		t.Errorf("fleet.cells = %v, want %d", got, len(res.Cells))
	}
	if got := snap.Metrics["fleet.assigned"].Value; got == nil || *got != float64(wantAssigned) {
		t.Errorf("fleet.assigned = %v, want %d", got, wantAssigned)
	}
}
