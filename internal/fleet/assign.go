package fleet

import (
	"sort"
	"strconv"

	"fastforward/internal/channel"
	"fastforward/internal/floorplan"
	"fastforward/internal/ident"
	"fastforward/internal/relay"
)

// Refused marks a client no relay could admit; it falls back to the AP's
// direct link.
const Refused = -1

// Link is one client's view of one relay: the measured channel between
// them, reduced to what the scheduler ranks on.
type Link struct {
	// RelayID names the relay this link reaches.
	RelayID int
	// GainDB is the average power gain of the relay→client channel
	// (negative; path loss). Its negation is the R→D attenuation of the
	// Sec 3.5 session budget.
	GainDB float64
	// FP is the client's STF fingerprint through this relay's channel —
	// the Sec 6 identification primitive. The relay enrolls it while the
	// client is assigned here.
	FP ident.Fingerprint
	// AffinityDB is the fingerprint's mean subcarrier energy in dB — the
	// ranking key for assignment (a stronger fingerprint is both easier
	// to classify and a better relayed link).
	AffinityDB float64
	// Identifiable reports that this relay's classifier picks the client
	// out against every other candidate at the aggressive threshold
	// (Sec 6: the filter must be selected before the PHY header
	// arrives). Identifiable links rank strictly ahead of unidentifiable
	// ones — a relay that cannot pick the client out must fall back to
	// late identification and loses the fast-forward head start, so it
	// is only used when nothing better admits.
	Identifiable bool
}

// Client is one simulated station and its assignment state.
type Client struct {
	// ID is the pool-unique client identifier.
	ID int
	// Pos is the client's position on the floor plan.
	Pos floorplan.Point
	// DirectSNRdB is the AP→client SNR without any relay (the fallback
	// service level, and what a refused client gets).
	DirectSNRdB float64
	// Links holds this client's candidate relays in RelayID order.
	Links []Link

	// Assigned is the serving relay's ID, or Refused.
	Assigned int
	// Grant is the sticky amplification grant from the serving relay.
	Grant relay.AmpDecision
	// Degraded reports the grant was bisected below the client's own
	// bound (gate degrade policy).
	Degraded bool
	// Stranded marks a client left on a non-live relay because no
	// alternative could admit it during rebalancing.
	Stranded bool

	// prefs is the fingerprint-ranked relay preference order.
	prefs []int
	// lastMoveGrant is the pool grant-count at this client's last
	// migration — the dwell clock. Zero means the client has never
	// migrated (initial assignment does not arm the damper).
	lastMoveGrant uint64
}

// Link returns the client's link to the given relay.
func (c *Client) Link(relayID int) (Link, bool) {
	i := sort.Search(len(c.Links), func(i int) bool { return c.Links[i].RelayID >= relayID })
	if i >= len(c.Links) || c.Links[i].RelayID != relayID {
		return Link{}, false
	}
	return c.Links[i], true
}

// Config tunes the assignment scheduler.
type Config struct {
	// MinAmpDB is each relay gate's admission threshold
	// (relayd.NewGate).
	MinAmpDB float64
	// MaxSessionsPerRelay caps each gate (<= 0: uncapped).
	MaxSessionsPerRelay int
	// Degrade selects the gates' soft admission policy (relayd.Gate's
	// degrade policy).
	Degrade bool
	// DegradeSeverity is the ladder rank at which a relay goes dark
	// (stops accepting assignments and sheds clients); RecoverSeverity
	// is the rank it must fall back to before it serves again. The gap
	// between them is the health hysteresis band.
	DegradeSeverity int
	RecoverSeverity int
	// MinDwellGrants is the minimum number of pool-wide admission grants
	// between two migrations of the same client — the flap damper,
	// measured in grant-count space so it is deterministic (no wall
	// clock). Initial assignment never arms it.
	MinDwellGrants uint64
	// MaxAmpDB caps each granted amplification below the relay's raw PA
	// headroom (<= 0: uncapped). A modest cap keeps grants PA-bound with
	// slack against the shared noise floor, so one session cannot
	// consume the entire budget and freeze its relay.
	MaxAmpDB float64
	// BaseCancellationDB is the relays' ideal self-interference
	// cancellation; each relay's health clips it
	// (Relay.EffectiveCancellationDB).
	BaseCancellationDB float64
	// NoiseFigureDB lifts the thermal floor at every receiver.
	NoiseFigureDB float64
}

// DefaultConfig mirrors the testbed calibration: 110 dB ideal
// cancellation, 8 dB noise figure, degrade-at-severe / recover-at-mild
// hysteresis, a 16-grant dwell, and a 30 dB amplification cap (the
// paper's hardware gain regime).
func DefaultConfig() Config {
	return Config{
		MinAmpDB:            0,
		MaxSessionsPerRelay: 0,
		Degrade:             true,
		DegradeSeverity:     3, // severe
		RecoverSeverity:     1, // mild
		MinDwellGrants:      16,
		MaxAmpDB:            30,
		BaseCancellationDB:  110,
		NoiseFigureDB:       8,
	}
}

// noiseFloorDBm returns the effective receiver noise floor.
func (cfg Config) noiseFloorDBm() float64 {
	return channel.NoiseFloorDBm + cfg.NoiseFigureDB
}

// Pool is the scheduler: the registry plus every client it places. Not
// concurrency-safe — each sweep cell owns one Pool.
type Pool struct {
	cfg     Config
	reg     *Registry
	clients []*Client

	// grants counts successful admissions pool-wide; it is the
	// deterministic clock dwell times are measured against.
	grants uint64

	// Spilled counts assignments that landed below the client's best
	// live preference because a better relay refused. Migrations counts
	// successful rebalance moves. Refusals counts assignment passes that
	// exhausted every preference.
	Spilled    int
	Migrations int
	Refusals   int
}

// NewPool builds a scheduler over a registry.
func NewPool(cfg Config, reg *Registry) *Pool {
	return &Pool{cfg: cfg, reg: reg}
}

// Registry returns the pool's relay registry.
func (p *Pool) Registry() *Registry { return p.reg }

// Clients returns the pool's clients in ascending-ID order.
func (p *Pool) Clients() []*Client { return p.clients }

// Grants returns the pool-wide admission count (the dwell clock).
func (p *Pool) Grants() uint64 { return p.grants }

// AddClient registers a client and computes its fingerprint-ranked
// preference order. The client starts unassigned. Every link must name a
// registered relay; relays are never removed, so the placement walk
// resolves each preference without a check.
func (p *Pool) AddClient(c *Client) {
	c.Assigned = Refused
	c.prefs = rankPrefs(c.Links)
	i := sort.Search(len(p.clients), func(i int) bool { return p.clients[i].ID >= c.ID })
	p.clients = append(p.clients, nil)
	copy(p.clients[i+1:], p.clients[i:])
	p.clients[i] = c
}

// rankPrefs orders a client's candidate relays: identifiable links
// strictly before unidentifiable ones, then by descending fingerprint
// affinity, with ascending relay ID as the deterministic tie-break.
func rankPrefs(links []Link) []int {
	idx := make([]int, len(links))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		la, lb := links[idx[a]], links[idx[b]]
		if la.Identifiable != lb.Identifiable {
			return la.Identifiable
		}
		if la.AffinityDB != lb.AffinityDB {
			return la.AffinityDB > lb.AffinityDB
		}
		return la.RelayID < lb.RelayID
	})
	prefs := make([]int, len(idx))
	for i, j := range idx {
		prefs[i] = links[j].RelayID
	}
	return prefs
}

// sessionKey is the gate-side identity of one client's session.
func sessionKey(clientID int) string { return "c" + strconv.Itoa(clientID) }

// budgetFor translates one relay/link pair into the Sec 3.5 session
// budget its gate admits against. The PA headroom is clipped to
// Config.MaxAmpDB so grants stay PA-bound with shared-floor slack.
func (p *Pool) budgetFor(r *Relay, l Link) relay.SessionBudget {
	pa := r.MaxTxDBm - r.RxAtRelayDBm
	if p.cfg.MaxAmpDB > 0 && pa > p.cfg.MaxAmpDB {
		pa = p.cfg.MaxAmpDB
	}
	return relay.SessionBudget{
		CancellationDB: r.EffectiveCancellationDB(p.cfg.BaseCancellationDB),
		RDAttenDB:      -l.GainDB,
		PAHeadroomDB:   pa,
		RxOverNoiseDB:  r.RxAtRelayDBm - p.cfg.noiseFloorDBm(),
	}
}

// admitAt runs one guarded gate admission. A strict grant bound by the
// noise rule sits exactly on the shared floor at the current load:
// sticky grants have no slack, so every later candidate would violate
// it and the relay would be frozen at this session count. The pool
// refuses such grants (releasing the slot) rather than let one session
// monopolize a relay — the client spills to its next preference.
func (p *Pool) admitAt(r *Relay, c *Client, l Link) (relay.AmpDecision, bool, bool) {
	key := sessionKey(c.ID)
	dec, degraded, ref := r.ep.Admit(key, p.budgetFor(r, l))
	if ref != nil {
		return relay.AmpDecision{}, false, false
	}
	if dec.Bound == relay.AmpBoundNoiseRule {
		r.ep.Release(key)
		return relay.AmpDecision{}, false, false
	}
	return dec, degraded, true
}

// AssignAll places every unassigned client, in ascending client-ID
// order, on its best-ranked live relay that admits it. A refusal from a
// better-ranked live relay spills the client to the next preference; a
// client every preference refuses stays at Refused (and is retried by
// the next AssignAll or Rebalance).
func (p *Pool) AssignAll() {
	for _, c := range p.clients {
		if c.Assigned != Refused {
			continue
		}
		p.assign(c)
	}
}

// assign places an unassigned client, or leaves it Refused and counts
// the refusal. It reports success.
func (p *Pool) assign(c *Client) bool {
	if p.place(c) {
		return true
	}
	c.unassign()
	p.Refusals++
	return false
}

// place is the one placement walk. It tries the client's preferences in
// rank order, skipping the relay it is on and every dark relay, and
// admits it at the first gate that grants (admitAt). Only once the new
// grant exists is the old leg, if any, released, so a move is
// make-before-break and the aggregate admitted load never overshoots
// either relay's budget. It books the grant and the enrolment, and
// counts a spill when a better-ranked live relay refused. It reports
// success; on failure the client's assignment is untouched.
func (p *Pool) place(c *Client) bool {
	sawLiveRefusal := false
	for _, id := range c.prefs {
		if id == c.Assigned {
			continue
		}
		r, _ := p.reg.Get(id)
		if !r.Live() {
			continue
		}
		l, _ := c.Link(id)
		dec, degraded, ok := p.admitAt(r, c, l)
		if !ok {
			sawLiveRefusal = true
			continue
		}
		p.release(c)
		c.Assigned = id
		c.Grant = dec
		c.Degraded = degraded
		c.Stranded = false
		r.cls.Enroll(c.ID, l.FP)
		p.grants++
		if sawLiveRefusal {
			p.Spilled++
		}
		return true
	}
	return false
}

// release undoes a client's current assignment: gate slot freed,
// fingerprint forgotten, assignment cleared.
func (p *Pool) release(c *Client) {
	if c.Assigned == Refused {
		return
	}
	r, _ := p.reg.Get(c.Assigned)
	r.ep.Release(sessionKey(c.ID))
	r.cls.Forget(c.ID)
	c.unassign()
}

// unassign clears the client's assignment state.
func (c *Client) unassign() {
	c.Assigned = Refused
	c.Grant = relay.AmpDecision{}
	c.Degraded = false
	c.Stranded = false
}

// AdmittedLoad sums every live grant's residual load across the pool —
// bounded by construction by the sum of per-relay budget targets (each
// gate enforces its own account).
func (p *Pool) AdmittedLoad() float64 {
	var load float64
	for _, r := range p.reg.Relays() {
		load += r.ep.ResidualLoad()
	}
	return load
}
