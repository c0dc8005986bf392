package fleet

// SetHealth moves a relay to a severity-ladder rank (clamped to the
// ladder) and updates its hysteresis latch: the relay goes dark when the
// rank reaches Config.DegradeSeverity and returns to service only once
// the rank falls back to Config.RecoverSeverity. Ranks inside the band
// keep the previous state, so a relay oscillating across one threshold
// cannot flap between serving and shedding.
//
// SetHealth only flips the latch; client movement happens on the next
// Rebalance, so a health burst costs one reshuffle, not one per reading.
func (p *Pool) SetHealth(relayID, severity int) bool {
	r, ok := p.reg.Get(relayID)
	if !ok {
		return false
	}
	if severity < 0 {
		severity = 0
	}
	if severity >= len(severityLadder) {
		severity = len(severityLadder) - 1
	}
	r.severity = severity
	if !r.degraded && severity >= p.cfg.DegradeSeverity {
		r.degraded = true
	} else if r.degraded && severity <= p.cfg.RecoverSeverity {
		r.degraded = false
	}
	return true
}

// Rebalance reconciles assignments with the pool's current health and
// load, in ascending client-ID order for determinism:
//
//   - a client on a dark relay migrates make-before-break: the new gate
//     must grant before the old slot is released, so the aggregate
//     admitted load never overshoots either relay's budget. If no live
//     relay admits it, the client is Stranded — it keeps its sticky
//     grant on the dark relay (service degrades; it does not vanish).
//   - a Refused client retries assignment (a recovered or drained relay
//     may now have room).
//   - moves are dwell-limited: a client moved within the last
//     Config.MinDwellGrants pool-wide grants stays put this round, which
//     bounds the rebalance rate in grant-count space.
//
// It returns the number of clients migrated this pass.
func (p *Pool) Rebalance() int {
	moved := 0
	for _, c := range p.clients {
		if c.Assigned == Refused {
			if p.assign(c) {
				moved++ // spill-back counts as a move for callers' accounting
			}
			continue
		}
		r, _ := p.reg.Get(c.Assigned)
		if r.Live() {
			c.Stranded = false
			continue
		}
		// Dwell damper: a client migrated within the last MinDwellGrants
		// pool-wide grants holds position. A never-migrated client
		// (lastMoveGrant zero) is always free to evacuate.
		if c.lastMoveGrant != 0 && p.grants-c.lastMoveGrant < p.cfg.MinDwellGrants {
			continue
		}
		if p.place(c) {
			c.lastMoveGrant = p.grants
			p.Migrations++
			moved++
		} else {
			c.Stranded = true
		}
	}
	return moved
}
