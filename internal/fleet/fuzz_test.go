package fleet

import (
	"testing"

	"fastforward/internal/ident"
)

// FuzzAssignment builds a synthetic fleet from fuzz bytes — relay count,
// per-relay session caps, per-link gains and identifiability, one health
// event — runs assignment plus a rebalance, and checks the structural
// invariants the scheduler promises: no panics, every client either on a
// registered relay or explicitly Refused, session books consistent with
// the gates, and nobody parked on a dark relay without being Stranded.
func FuzzAssignment(f *testing.F) {
	f.Add([]byte{2, 8, 0, 1})
	f.Add([]byte{4, 24, 3, 0xC7, 10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{1, 1, 1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// Deterministic byte stream with wraparound past the input.
		at := 0
		next := func() byte {
			if at >= len(data) {
				at = 0
			}
			b := data[at]
			at++
			return b
		}

		nRelays := 1 + int(next()%4)
		nClients := 1 + int(next()%24)
		cfg := DefaultConfig()
		cfg.MaxSessionsPerRelay = int(next() % 8) // 0 = uncapped
		health := next()
		failRelay := int(health) % nRelays
		failSev := int(health>>4) % 5

		p := syntheticPool(cfg, nRelays)
		for id := 0; id < nClients; id++ {
			c := &Client{ID: id, Links: make([]Link, 0, nRelays)}
			for rid := 0; rid < nRelays; rid++ {
				b := next()
				gain := -20 - float64(b%70) // RDAtten 20..89 dB
				c.Links = append(c.Links, Link{
					RelayID:      rid,
					GainDB:       gain,
					FP:           ident.Fingerprint{complex(1, 0)},
					AffinityDB:   gain,
					Identifiable: b&1 == 0,
				})
			}
			p.AddClient(c)
		}

		p.AssignAll()
		checkFuzzInvariants(t, p, false)

		p.SetHealth(failRelay, failSev)
		p.Rebalance()
		checkFuzzInvariants(t, p, true)
	})
}

func checkFuzzInvariants(t *testing.T, p *Pool, postRebalance bool) {
	t.Helper()
	assigned := 0
	for _, c := range p.Clients() {
		if c.Assigned == Refused {
			for _, r := range p.Registry().Relays() {
				if _, ok := r.Gate.Decision(sessionKey(c.ID)); ok {
					t.Fatalf("refused client %d still held by gate %d", c.ID, r.ID)
				}
			}
			continue
		}
		assigned++
		r, ok := p.Registry().Get(c.Assigned)
		if !ok {
			t.Fatalf("client %d assigned to unregistered relay %d", c.ID, c.Assigned)
		}
		holders := 0
		for _, other := range p.Registry().Relays() {
			if _, ok := other.Gate.Decision(sessionKey(c.ID)); ok {
				holders++
				if other.ID != r.ID {
					t.Fatalf("client %d assigned to %d but also held by gate %d", c.ID, c.Assigned, other.ID)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("client %d held by %d gates, want exactly 1", c.ID, holders)
		}
		if postRebalance && !r.Live() && !c.Stranded {
			// One health event, one rebalance: nobody has migrated
			// before, so the dwell damper cannot hold anyone — a client
			// left on a dark relay must be explicitly Stranded.
			t.Fatalf("client %d on dark relay %d without Stranded", c.ID, r.ID)
		}
		if lim := r.Gate.MaxSessions(); lim > 0 && r.Gate.Sessions() > lim {
			t.Fatalf("relay %d holds %d sessions over cap %d", r.ID, r.Gate.Sessions(), lim)
		}
	}
	active := 0
	for _, r := range p.Registry().Relays() {
		active += r.Gate.Sessions()
	}
	if active != assigned {
		t.Fatalf("gates hold %d sessions, pool assigned %d clients", active, assigned)
	}
}
