package fleet

import (
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/rng"
)

// b2f maps a bool onto a golden value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// pinPool records every Books field and every Snapshot field of a cell
// under prefix.
func pinPool(got map[string]float64, prefix string, cell *Cell) {
	b := cell.Pool.Books()
	for _, c := range b.Clients {
		k := golden.Key(prefix, "client", c.ID)
		got[golden.Key(k, "assigned")] = float64(c.Assigned)
		got[golden.Key(k, "amp_db")] = c.Grant.AmpDB
		got[golden.Key(k, "bound")] = float64(c.Grant.Bound)
		got[golden.Key(k, "stability_headroom_db")] = c.Grant.StabilityHeadroomDB
		got[golden.Key(k, "degraded")] = b2f(c.Degraded)
		got[golden.Key(k, "stranded")] = b2f(c.Stranded)
	}
	got[golden.Key(prefix, "grants")] = float64(b.Grants)
	got[golden.Key(prefix, "spilled")] = float64(b.Spilled)
	got[golden.Key(prefix, "migrations")] = float64(b.Migrations)
	got[golden.Key(prefix, "refusals")] = float64(b.Refusals)

	s := cell.Evaluate()
	got[golden.Key(prefix, "aggregate_mbps")] = s.AggregateMbps
	got[golden.Key(prefix, "p99_mbps")] = s.P99Mbps
	got[golden.Key(prefix, "amps")] = float64(len(s.AmpsDB))
	for i, a := range s.AmpsDB {
		got[golden.Key(prefix, "amp_db", i)] = a
	}
	for i, n := range s.SessionsPerRelay {
		got[golden.Key(prefix, "sessions", i)] = float64(n)
	}
	got[golden.Key(prefix, "assigned")] = float64(s.Assigned)
	got[golden.Key(prefix, "refused")] = float64(s.Refused)
}

// TestFleetGolden pins the scheduler's decisions end to end: the full
// books and service snapshot of three home cells after AssignAll, after
// the busiest relay goes severe and Rebalance runs, and after it
// recovers and Rebalance runs again. Between them the cells spill,
// migrate, refuse and strand, so every placement branch is held to a
// recorded baseline. Re-baseline with -update.
func TestFleetGolden(t *testing.T) {
	sc, err := scenarioByName("home")
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct{ relays, clients, cap int }{
		{3, 40, 8},
		{4, 100, 0},
		{8, 200, 16},
	}
	got := map[string]float64{}
	for i, cc := range cells {
		cfg := DefaultCellConfig(sc, cc.relays, cc.clients, rng.ItemSeed(2, 3+i))
		cfg.Pool.MaxSessionsPerRelay = cc.cap
		cell := BuildCell(cfg)
		p := cell.Pool
		prefix := golden.Key("cell", i)

		p.AssignAll()
		pinPool(got, golden.Key(prefix, "healthy"), cell)

		failID := busiestRelay(p)
		p.SetHealth(failID, 3)
		p.Rebalance()
		pinPool(got, golden.Key(prefix, "failed"), cell)

		p.SetHealth(failID, 1)
		p.Rebalance()
		pinPool(got, golden.Key(prefix, "recovered"), cell)
	}
	golden.Check(t, "testdata/fleet_golden.json", got)
}
