package fleet

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/cnf"
	"fastforward/internal/floorplan"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
)

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	for _, id := range []int{3, 1, 2} {
		r := NewRelay(id, floorplan.Point{X: float64(id)}, 0, 0, true, -58, 0)
		if err := reg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Add(NewRelay(2, floorplan.Point{}, 0, 0, true, -58, 0)); err == nil {
		t.Fatalf("duplicate id accepted")
	}
	ids := []int{}
	for _, r := range reg.Relays() {
		ids = append(ids, r.ID)
	}
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("registry order %v, want ascending IDs", ids)
	}
	if r, ok := reg.Get(2); !ok || r.ID != 2 {
		t.Fatalf("Get(2) = %v, %v; want relay 2", r, ok)
	}
	if _, ok := reg.Get(4); ok {
		t.Fatalf("unregistered relay resolvable")
	}
	if reg.Len() != 3 || reg.Live() != 3 {
		t.Fatalf("Len=%d Live=%d, want 3/3", reg.Len(), reg.Live())
	}
}

// checkNoDoubleAssignment asserts the gate-level session books agree
// with the pool: every assigned client's session key is held by exactly
// its serving gate, refused clients by none, and the per-gate session
// counts sum to the assigned-client count.
func checkNoDoubleAssignment(t *testing.T, p *Pool) {
	t.Helper()
	assigned := 0
	for _, c := range p.Clients() {
		holders := []int{}
		for _, r := range p.Registry().Relays() {
			if _, ok := r.Gate.Decision(sessionKey(c.ID)); ok {
				holders = append(holders, r.ID)
			}
		}
		if c.Assigned == Refused {
			if len(holders) != 0 {
				t.Fatalf("refused client %d held by gates %v", c.ID, holders)
			}
			continue
		}
		assigned++
		if len(holders) != 1 || holders[0] != c.Assigned {
			t.Fatalf("client %d assigned to %d but held by gates %v", c.ID, c.Assigned, holders)
		}
	}
	active := 0
	for _, r := range p.Registry().Relays() {
		active += r.Gate.Active()
	}
	if active != assigned {
		t.Fatalf("gates hold %d sessions, pool assigned %d clients", active, assigned)
	}
}

// checkLoadBound asserts the Sec 3.5 aggregate invariant at fleet scope:
// each relay's residual load, and therefore the pool-wide admitted load,
// stays under the sum of its admitted sessions' budget targets (each
// member obeys beta*A^2 + (1+L)*A <= target with A >= 1, so its own load
// contribution beta*A is below its target).
func checkLoadBound(t *testing.T, p *Pool) {
	t.Helper()
	var totalTargets float64
	for _, r := range p.Registry().Relays() {
		var relayTargets float64
		for _, c := range p.Clients() {
			if c.Assigned != r.ID {
				continue
			}
			l, ok := c.Link(r.ID)
			if !ok {
				t.Fatalf("client %d assigned to relay %d without a link", c.ID, r.ID)
			}
			sb := p.budgetFor(r, l)
			relayTargets += math.Pow(10, (sb.RDAttenDB-cnf.NoiseMarginDB)/10)
		}
		if load := r.Gate.ResidualLoad(); load > relayTargets {
			t.Fatalf("relay %d residual load %.6g exceeds its sessions' target sum %.6g",
				r.ID, load, relayTargets)
		}
		totalTargets += relayTargets
	}
	if load := p.AdmittedLoad(); load > totalTargets {
		t.Fatalf("pool admitted load %.6g exceeds per-relay target sum %.6g", load, totalTargets)
	}
}

// TestFleetFailureMigration is the 3-relay integration scenario: build a
// real cell, drive one relay up the severity ladder rung by rung, and
// watch clients migrate away with the books staying consistent at every
// rung. Each admitted survivor's chain then runs one block through its
// own Process, the way a live daemon serves it.
func TestFleetFailureMigration(t *testing.T) {
	sc, err := scenarioByName("home")
	if err != nil {
		t.Fatal(err)
	}
	cell := BuildCell(DefaultCellConfig(sc, 3, 45, 99))
	p := cell.Pool

	p.AssignAll()
	checkNoDoubleAssignment(t, p)
	checkLoadBound(t, p)

	failID := busiestRelay(p)
	victims := map[int]bool{}
	for _, c := range p.Clients() {
		if c.Assigned == failID {
			victims[c.ID] = true
		}
	}
	if len(victims) == 0 {
		t.Fatalf("busiest relay %d holds no clients", failID)
	}

	failed, _ := p.Registry().Get(failID)
	for sev := 1; sev <= 4; sev++ {
		p.SetHealth(failID, sev)
		p.Rebalance()
		wantLive := sev < p.cfg.DegradeSeverity
		if failed.Live() != wantLive {
			t.Fatalf("severity %d: Live=%v, want %v", sev, failed.Live(), wantLive)
		}
		checkNoDoubleAssignment(t, p)
		checkLoadBound(t, p)
	}

	if p.Migrations == 0 {
		t.Fatalf("no client migrated off the failed relay")
	}
	for _, c := range p.Clients() {
		if !victims[c.ID] {
			continue
		}
		switch {
		case c.Assigned == failID:
			if !c.Stranded {
				t.Fatalf("client %d still on dark relay %d but not Stranded", c.ID, failID)
			}
		case c.Assigned == Refused:
			// Acceptable terminal state: every alternative refused.
		default:
			r, ok := p.Registry().Get(c.Assigned)
			if !ok || !r.Live() {
				t.Fatalf("client %d migrated onto non-live relay %d", c.ID, c.Assigned)
			}
		}
	}

	// Hysteresis on the way back: inside the band the relay stays dark;
	// at the recovery floor it serves again.
	p.SetHealth(failID, 2)
	if failed.Live() {
		t.Fatalf("relay recovered inside the hysteresis band")
	}
	p.SetHealth(failID, 1)
	if !failed.Live() {
		t.Fatalf("relay still dark at the recovery floor")
	}
	p.Rebalance()
	checkNoDoubleAssignment(t, p)
	checkLoadBound(t, p)

	// Run every admitted session through its own chain — the fleet's
	// grants must be executable by the daemon-shaped pipeline.
	const blockSamples = 64
	for _, r := range p.Registry().Relays() {
		src := rng.New(4242 + int64(r.ID))
		for _, c := range p.Clients() {
			if c.Assigned != r.ID {
				continue
			}
			l, _ := c.Link(r.ID)
			sb := p.budgetFor(r, l)
			params := relayd.SessionParams{
				SampleRateHz:   cellSampleRate,
				BlockSamples:   blockSamples,
				CancelTaps:     8,
				CNFTaps:        8,
				CFOHz:          200,
				Seed:           int64(c.ID) + 1,
				CancellationDB: sb.CancellationDB,
				RDAttenDB:      sb.RDAttenDB,
				PAHeadroomDB:   sb.PAHeadroomDB,
				RxOverNoiseDB:  sb.RxOverNoiseDB,
			}
			ch, cancel := relayd.BuildSessionChain(params, c.Grant.AmpDB)
			block := src.NoiseVector(blockSamples, 1)
			cancel.SetReference(src.NoiseVector(blockSamples, 1))
			for j, v := range ch.Process(block) {
				if cmplx.IsNaN(v) || cmplx.IsInf(v) {
					t.Fatalf("relay %d client %d sample %d not finite: %v", r.ID, c.ID, j, v)
				}
			}
		}
	}
}
