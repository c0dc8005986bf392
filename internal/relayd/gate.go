package relayd

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"fastforward/internal/relay"
)

// Gate is one relay front-end's admission domain, extracted from the
// daemon so other layers (the fleet scheduler in internal/fleet, tests)
// can run the exact admission policy a live ffrelayd applies: the
// session-count cap, then the aggregate Sec 3.5 shared-floor budget
// (relay.ChooseAmplificationResidualDB under the other members' residual
// load), with the strict-or-degrade grant policy.
//
// Admitted sessions hold their granted amplification until released
// (grants are sticky — a running session's gain is not re-tuned under
// it); a new session is admitted only if every sticky grant stays within
// its recomputed shared-floor bound. Members are kept in admission order,
// so all accounting is deterministic.
//
// The daemon's remaining refusal causes — drain state, malformed HELLOs,
// token-bucket throttling — are lifecycle and transport concerns and stay
// in Server; the Gate is the physics-and-capacity core that makes one
// relay "full". Refusals are reported with the same stable Refuse codes
// the wire protocol uses, so a fleet-level spill decision and a REFUSE
// frame are driven by the same value. *Gate is itself a fleet.Endpoint:
// the in-process admission domain of every fleet relay.
//
// A Gate is safe for concurrent use; the daemon calls it under its own
// lock as well, which keeps cap check and budget admission atomic with
// session registration.
type Gate struct {
	mu          sync.Mutex
	maxSessions int
	minAmpDB    float64
	degrade     bool
	members     []gateMember
}

// gateMember is one admitted session's sticky grant.
type gateMember struct {
	id  string
	sb  relay.SessionBudget
	dec relay.AmpDecision
	// load is β·A (linear): this member's residual contribution to the
	// shared floor.
	load float64
}

// ampSlackDB absorbs float noise when a member's granted amplification is
// compared against its recomputed bound: a violation must exceed this to
// count. Far below any physically meaningful margin.
const ampSlackDB = 1e-9

// degradeIterations bounds the degrade policy's bisection; 64 halvings
// drive the bracket below any representable dB difference.
const degradeIterations = 64

// NewGate builds an admission gate. maxSessions <= 0 leaves the session
// count uncapped; minAmpDB is the least useful amplification grant: a
// candidate whose shared-floor bound falls below it (or hits the 0 dB
// floor) is refused rather than admitted uselessly. degrade selects the
// degrade policy (bisect the candidate's grant down until every member
// tolerates it) over the strict one (grant the full bound or refuse).
func NewGate(maxSessions int, minAmpDB float64, degrade bool) *Gate {
	return &Gate{maxSessions: maxSessions, minAmpDB: minAmpDB, degrade: degrade}
}

// Admit runs the admission decision for one candidate session: the cap,
// a duplicate id, the candidate's own bound at the current load, then
// whether every member tolerates the strict grant. When one does not, the
// degrade policy bisects the grant down (members' sticky grants are never
// touched) to the largest value every member tolerates, never below
// minAmpDB or 0 dB; the strict policy refuses. On success the grant is
// sticky until Release(id), and degraded reports a bisected grant. On
// refusal the returned Refuse carries the stable wire code
// (RefuseSessionLimit or RefuseBudget) plus a human-readable detail, and
// dec is the candidate's strict decision where one was computed.
func (g *Gate) Admit(id string, sb relay.SessionBudget) (dec relay.AmpDecision, degraded bool, ref *Refuse) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.maxSessions > 0 && len(g.members) >= g.maxSessions {
		return relay.AmpDecision{}, false, &Refuse{Code: RefuseSessionLimit,
			Detail: "max_sessions=" + strconv.Itoa(g.maxSessions) + " reached"}
	}
	if g.find(id) >= 0 {
		return relay.AmpDecision{}, false, budgetRefusal("duplicate_id", id, 0)
	}
	dec = relay.ChooseAmplificationResidualDB(sb, g.loadExcluding(-1), true)
	if dec.Bound == relay.AmpBoundFloor || dec.AmpDB < g.minAmpDB {
		return dec, false, budgetRefusal("below_min_amp", id, dec.AmpDB)
	}
	beta := sb.ResidualWeight()
	grantLin := math.Pow(10, dec.AmpDB/10)
	if i, boundDB := g.violatedMember(beta * grantLin); i >= 0 {
		if !g.degrade {
			return dec, false, budgetRefusal("member_violation", g.members[i].id, boundDB)
		}
		// A violation means β > 0 (a zero-weight candidate adds no load),
		// so a smaller grant relieves it. The bracket never reaches below
		// 0 dB: a grant is amplification, never attenuation, whatever
		// minAmpDB says.
		lo := math.Pow(10, math.Max(g.minAmpDB, 0)/10)
		if i, boundDB := g.violatedMember(beta * lo); i >= 0 {
			return dec, false, budgetRefusal("member_violation", g.members[i].id, boundDB)
		}
		// Bisect the largest tolerable grant in [lo, grantLin]: load is
		// monotone in the grant, so feasibility is monotone too.
		hi := grantLin
		for k := 0; k < degradeIterations; k++ {
			mid := lo + (hi-lo)/2
			if i, _ := g.violatedMember(beta * mid); i < 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		grantLin = lo
		ampDB := 10 * math.Log10(grantLin)
		dec = relay.AmpDecision{AmpDB: ampDB, Bound: relay.AmpBoundBudget, StabilityHeadroomDB: sb.CancellationDB - ampDB}
		degraded = true
	}
	g.members = append(g.members, gateMember{id: id, sb: sb, dec: dec, load: beta * grantLin})
	return dec, degraded, nil
}

// budgetRefusal is the RefuseBudget refusal for reason; session names the
// session the refusal protects (the candidate, or the admitted member
// whose grant it would invalidate) and ampDB the amplification at the
// refusal point (the candidate's grant, or the member's recomputed
// bound).
func budgetRefusal(reason, session string, ampDB float64) *Refuse {
	return &Refuse{Code: RefuseBudget,
		Detail: fmt.Sprintf("relay budget: %s (session %q, amp %.3f dB)", reason, session, ampDB)}
}

// violatedMember recomputes every member's shared-floor bound with the
// candidate contributing candLoad and returns the first member whose
// sticky grant exceeds it (admission order) with that bound, or -1 when
// all grants hold. Caller holds g.mu.
func (g *Gate) violatedMember(candLoad float64) (int, float64) {
	for i := range g.members {
		m := &g.members[i]
		bound := relay.ChooseAmplificationResidualDB(m.sb, g.loadExcluding(i)+candLoad, true)
		if m.dec.AmpDB > bound.AmpDB+ampSlackDB {
			return i, bound.AmpDB
		}
	}
	return -1, 0
}

// loadExcluding sums every member's residual load except index skip (-1
// sums all). Caller holds g.mu.
func (g *Gate) loadExcluding(skip int) float64 {
	var l float64
	for i := range g.members {
		if i != skip {
			l += g.members[i].load
		}
	}
	return l
}

// find returns the member index of id, or -1. Linear scan: a gate holds
// tens of sessions, and the slice keeps admission order deterministic.
// Caller holds g.mu.
func (g *Gate) find(id string) int {
	for i := range g.members {
		if g.members[i].id == id {
			return i
		}
	}
	return -1
}

// Release frees an admitted session's budget slot, returning its
// residual contribution to the shared pool. Reports whether the id was
// admitted.
func (g *Gate) Release(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.find(id)
	if i < 0 {
		return false
	}
	g.members = append(g.members[:i], g.members[i+1:]...)
	return true
}

// Sessions returns the number of sessions currently holding grants.
func (g *Gate) Sessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.members)
}

// ResidualLoad returns the admitted sessions' aggregate residual load
// L = Σ β_i·A_i (linear, relative to thermal noise).
func (g *Gate) ResidualLoad() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.loadExcluding(-1)
}

// Decision returns the sticky grant of an admitted session.
func (g *Gate) Decision(id string) (relay.AmpDecision, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := g.find(id); i >= 0 {
		return g.members[i].dec, true
	}
	return relay.AmpDecision{}, false
}

// MinAmpDB returns the configured admission threshold.
func (g *Gate) MinAmpDB() float64 { return g.minAmpDB }

// MaxSessions returns the configured session cap (0 = uncapped).
func (g *Gate) MaxSessions() int { return g.maxSessions }
