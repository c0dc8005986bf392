package fleet

import (
	"testing"

	"fastforward/internal/floorplan"
	"fastforward/internal/ident"
)

// syntheticPool builds a pool over n relays with uniform physics and no
// floor plan, so tests control preferences purely through link gains.
func syntheticPool(cfg Config, n int) *Pool {
	reg := NewRegistry()
	for id := 0; id < n; id++ {
		r := NewRelay(id, floorplan.Point{X: float64(id)}, cfg.MaxSessionsPerRelay,
			cfg.MinAmpDB, cfg.Degrade, -58, 0)
		if err := reg.Add(r); err != nil {
			panic(err)
		}
	}
	return NewPool(cfg, reg)
}

// syntheticClient gives a client one link per relay; gains[i] is the
// relay i→client gain in dB (also the preference key: higher is better).
func syntheticClient(id int, gains []float64) *Client {
	c := &Client{ID: id, Links: make([]Link, 0, len(gains))}
	for rid, g := range gains {
		c.Links = append(c.Links, Link{
			RelayID:      rid,
			GainDB:       g,
			FP:           ident.Fingerprint{complex(1, 0)},
			AffinityDB:   g,
			Identifiable: true,
		})
	}
	return c
}

// TestHealthLatchTable drives one relay through severity sequences and
// pins the hysteresis latch at every step: dark at DegradeSeverity (3),
// live again only at RecoverSeverity (1), sticky inside the band.
func TestHealthLatchTable(t *testing.T) {
	cases := []struct {
		name     string
		seq      []int
		wantLive []bool
	}{
		{
			name:     "below-threshold-stays-live",
			seq:      []int{1, 2, 2, 1, 0},
			wantLive: []bool{true, true, true, true, true},
		},
		{
			name:     "cross-then-hold-in-band",
			seq:      []int{3, 2, 2, 2},
			wantLive: []bool{false, false, false, false},
		},
		{
			name:     "recover-only-at-floor",
			seq:      []int{4, 3, 2, 1},
			wantLive: []bool{false, false, false, true},
		},
		{
			name:     "oscillation-across-threshold-no-flap",
			seq:      []int{3, 2, 3, 2, 3, 2, 1, 2},
			wantLive: []bool{false, false, false, false, false, false, true, true},
		},
		{
			name:     "clamped-out-of-range",
			seq:      []int{9, -3},
			wantLive: []bool{false, true},
		},
		{
			name:     "clamped-minus-one",
			seq:      []int{3, -1},
			wantLive: []bool{false, true},
		},
		{
			name:     "clamped-ninety-nine",
			seq:      []int{99, 2, 99, 1},
			wantLive: []bool{false, false, false, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := syntheticPool(DefaultConfig(), 1)
			r, _ := p.Registry().Get(0)
			for i, sev := range tc.seq {
				if !p.SetHealth(0, sev) {
					t.Fatalf("step %d: SetHealth rejected", i)
				}
				if r.Live() != tc.wantLive[i] {
					t.Fatalf("step %d (severity %d): Live=%v, want %v",
						i, sev, r.Live(), tc.wantLive[i])
				}
				// The clamp keeps the rank on the ladder, so the
				// relay's cancellation is always a rung's floor.
				want := min(max(sev, 0), len(severityLadder)-1)
				if got, wantDB := r.EffectiveCancellationDB(110), severityLadder[want].EffectiveCancellationDB(110); got != wantDB {
					t.Fatalf("step %d (severity %d): cancellation %v dB, want rung %d's %v dB",
						i, sev, got, want, wantDB)
				}
			}
		})
	}

	p := syntheticPool(DefaultConfig(), 1)
	if p.SetHealth(7, 3) {
		t.Fatalf("SetHealth accepted an unregistered relay")
	}
}

// TestDwellBoundary pins the flap damper in grant-count space, at the
// exact boundary: a client's first evacuation is always free (initial
// assignment never arms the damper), a second migration is held until
// exactly MinDwellGrants pool-wide grants have passed since the first.
func TestDwellBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDwellGrants = 4
	p := syntheticPool(cfg, 3)
	c := syntheticClient(0, []float64{-40, -50, -60}) // prefers 0, then 1, then 2
	p.AddClient(c)

	p.AssignAll()
	if c.Assigned != 0 {
		t.Fatalf("assigned to %d, want preferred relay 0", c.Assigned)
	}
	if c.lastMoveGrant != 0 {
		t.Fatalf("initial assignment armed the dwell damper (lastMoveGrant=%d)", c.lastMoveGrant)
	}

	// First failure: evacuation is immediate despite the damper.
	p.SetHealth(0, 3)
	if moved := p.Rebalance(); moved != 1 || c.Assigned != 1 {
		t.Fatalf("first evacuation: moved=%d assigned=%d, want 1/relay 1", moved, c.Assigned)
	}
	armedAt := c.lastMoveGrant
	if armedAt == 0 {
		t.Fatalf("migration did not arm the dwell damper")
	}

	// Second failure immediately after: the damper holds the client on
	// the dark relay (not Stranded — it is dwell-held, not refused).
	p.SetHealth(1, 3)
	if moved := p.Rebalance(); moved != 0 || c.Assigned != 1 || c.Stranded {
		t.Fatalf("inside dwell: moved=%d assigned=%d stranded=%v, want held on 1", moved, c.Assigned, c.Stranded)
	}

	// One grant short of the dwell: still held.
	p.grants = armedAt + cfg.MinDwellGrants - 1
	if moved := p.Rebalance(); moved != 0 || c.Assigned != 1 {
		t.Fatalf("one grant short: moved=%d assigned=%d, want held on 1", moved, c.Assigned)
	}

	// Exactly at the dwell: the move is allowed.
	p.grants = armedAt + cfg.MinDwellGrants
	if moved := p.Rebalance(); moved != 1 || c.Assigned != 2 {
		t.Fatalf("at dwell boundary: moved=%d assigned=%d, want moved to 2", moved, c.Assigned)
	}

	// Recovery must not flap the client back: relay 0 returning to
	// service leaves the client where it is.
	p.SetHealth(0, 1)
	p.grants += 100
	if moved := p.Rebalance(); moved != 0 || c.Assigned != 2 {
		t.Fatalf("after recovery: moved=%d assigned=%d, want no flap-back", moved, c.Assigned)
	}
}

// TestRebalanceRetriesRefused pins the retry path: a client refused
// while every relay was dark is re-admitted by Rebalance after a relay
// recovers.
func TestRebalanceRetriesRefused(t *testing.T) {
	p := syntheticPool(DefaultConfig(), 1)
	c := syntheticClient(0, []float64{-40})
	p.AddClient(c)

	p.SetHealth(0, 3)
	p.AssignAll()
	if c.Assigned != Refused || p.Refusals != 1 {
		t.Fatalf("dark fleet: assigned=%d refusals=%d, want refused/1", c.Assigned, p.Refusals)
	}

	p.SetHealth(0, 1)
	p.Rebalance()
	if c.Assigned != 0 {
		t.Fatalf("refused client not re-admitted after recovery (assigned=%d)", c.Assigned)
	}
}

// TestAssignSpillsToNextPreference pins the spill path: when the best
// fingerprint match is full, the client lands on its next-best match
// and the pool counts the spill.
func TestAssignSpillsToNextPreference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSessionsPerRelay = 1
	p := syntheticPool(cfg, 2)
	a := syntheticClient(0, []float64{-40, -55})
	b := syntheticClient(1, []float64{-41, -56}) // same preference order
	p.AddClient(a)
	p.AddClient(b)

	p.AssignAll()
	if a.Assigned != 0 || b.Assigned != 1 {
		t.Fatalf("got a=%d b=%d, want a on 0, b spilled to 1", a.Assigned, b.Assigned)
	}
	if p.Spilled != 1 {
		t.Fatalf("Spilled=%d, want 1", p.Spilled)
	}
}
