// Package fleet is the relay-pool layer above internal/relayd: a registry
// of N relays spread over one floor plan, each an independent admission
// domain (the daemon's extracted relayd.Gate: session cap plus Sec 3.5
// shared-floor budget), and a client-assignment scheduler that places
// thousands of simulated clients on relays by STF-fingerprint selection
// (internal/ident) — the paper's Sec 6 primitive promoted to a pool-wide
// routing decision.
//
// Per-relay health is a position on the impair severity ladder
// (ideal…harsh). The scheduler rebalances with hysteresis when a relay
// saturates its budget or degrades: a client refused by its best
// fingerprint match spills to the next-best, a client on a degraded relay
// migrates make-before-break, and every move is dwell-limited in
// grant-count space so saturate/recover oscillation cannot flap
// assignments.
//
// RunSweep produces the fleet figure — aggregate throughput and p99
// client rate versus relay count × client density — through internal/par
// with bit-identical results for any worker count, recording the fleet.*
// metrics of OBSERVABILITY.md.
package fleet

import (
	"fmt"
	"sort"

	"fastforward/internal/floorplan"
	"fastforward/internal/ident"
	"fastforward/internal/impair"
	"fastforward/internal/relayd"
)

// Relay is one pool member: a placed admission domain with a fingerprint
// database of its currently assigned clients and a severity-ladder health
// state.
type Relay struct {
	// ID is the pool-unique relay identifier.
	ID int
	// Pos is the relay's position on the floor plan.
	Pos floorplan.Point
	// Gate is the relay's admission domain — the same cap+budget gate a
	// live ffrelayd runs (relayd.Gate).
	Gate *relayd.Gate
	// RxAtRelayDBm is the AP signal power arriving at this relay;
	// MaxTxDBm is its PA limit. Together they set the per-session PA
	// headroom of the Sec 3.5 budget.
	RxAtRelayDBm float64
	MaxTxDBm     float64

	// ep is the admission endpoint the scheduler actually calls: Gate
	// itself by default, or a WireEndpoint driving a live ffrelayd
	// (SetEndpoint). The Gate field stays exported either way — it is the
	// relay's reference admission domain, and tests assert against it
	// directly.
	ep Endpoint

	// cls is the relay's own-client fingerprint database: enrolled on
	// assignment, forgotten on migration (the paper's relays only forward
	// packets of their own network).
	cls *ident.Classifier
	// severity is the current rung on the impair severity ladder
	// (0 = ideal … 4 = harsh); degraded is the hysteresis latch.
	severity int
	degraded bool
}

// NewRelay builds a pool member at a position: a fresh gate with the
// given cap/threshold/policy and an empty aggressive-threshold
// fingerprint database. rxAtRelayDBm and maxTxDBm calibrate its Sec 3.5
// budgets (see Config in assign.go).
func NewRelay(id int, pos floorplan.Point, maxSessions int, minAmpDB float64, degrade bool, rxAtRelayDBm, maxTxDBm float64) *Relay {
	r := &Relay{
		ID:           id,
		Pos:          pos,
		Gate:         relayd.NewGate(maxSessions, minAmpDB, degrade),
		RxAtRelayDBm: rxAtRelayDBm,
		MaxTxDBm:     maxTxDBm,
		cls:          ident.NewClassifier(ident.AggressiveThreshold),
	}
	r.ep = r.Gate
	return r
}

// Endpoint returns the admission endpoint the scheduler calls for this
// relay.
func (r *Relay) Endpoint() Endpoint { return r.ep }

// SetEndpoint swaps the relay's admission endpoint (nil restores Gate).
// Swapping while sessions are admitted is the caller's bug — the
// scheduler's release calls would go to the wrong admission domain.
func (r *Relay) SetEndpoint(ep Endpoint) {
	if ep == nil {
		ep = r.Gate
	}
	r.ep = ep
}

// Classifier exposes the relay's own-client fingerprint database.
func (r *Relay) Classifier() *ident.Classifier { return r.cls }

// Live reports whether the scheduler treats the relay as assignable. It
// is the hysteresis latch, not the raw severity: a relay goes dark when
// its severity climbs to Config.DegradeSeverity and only returns once it
// falls back to Config.RecoverSeverity.
func (r *Relay) Live() bool { return !r.degraded }

// severityLadder is the impair severity ladder a relay's health indexes;
// SetHealth clamps every rank into it.
var severityLadder = impair.SeverityLadder()

// EffectiveCancellationDB returns the cancellation the relay achieves at
// its current health: the ideal figure clipped by the severity rung's
// impairment floor (impair.Profile.EffectiveCancellationDB).
func (r *Relay) EffectiveCancellationDB(idealDB float64) float64 {
	return severityLadder[r.severity].EffectiveCancellationDB(idealDB)
}

// Registry is the pool membership: relays in ascending-ID order. It is
// not concurrency-safe; the Pool serializes access.
type Registry struct {
	relays []*Relay
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add inserts a relay, keeping ID order. Duplicate IDs are an error —
// assignment preferences are keyed by relay ID.
func (g *Registry) Add(r *Relay) error {
	i := sort.Search(len(g.relays), func(i int) bool { return g.relays[i].ID >= r.ID })
	if i < len(g.relays) && g.relays[i].ID == r.ID {
		return fmt.Errorf("fleet: duplicate relay id %d", r.ID)
	}
	g.relays = append(g.relays, nil)
	copy(g.relays[i+1:], g.relays[i:])
	g.relays[i] = r
	return nil
}

// Get returns the relay with the given ID.
func (g *Registry) Get(id int) (*Relay, bool) {
	i := sort.Search(len(g.relays), func(i int) bool { return g.relays[i].ID >= id })
	if i >= len(g.relays) || g.relays[i].ID != id {
		return nil, false
	}
	return g.relays[i], true
}

// Relays returns the members in ascending-ID order. The slice is the
// registry's own; callers must not mutate it.
func (g *Registry) Relays() []*Relay { return g.relays }

// Len returns the number of registered relays.
func (g *Registry) Len() int { return len(g.relays) }

// Live returns the number of live (assignable) relays.
func (g *Registry) Live() int {
	n := 0
	for _, r := range g.relays {
		if r.Live() {
			n++
		}
	}
	return n
}
