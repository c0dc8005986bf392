package relay

import (
	"fmt"
	"math"

	"fastforward/internal/cnf"
)

// This file is the admission-control face of the Sec 3.5 amplification
// rule. A single relay front-end serving several concurrent full-duplex
// sessions shares one receiver noise floor: every admitted session's
// residual self-interference (rx·A/C, the part its canceller leaves
// behind) raises the floor that every *other* session's amplifier then
// forwards toward its destination. The per-session residual rule of
// ChooseAmplificationResidualDB,
//
//	(n0 + rx·A/C) · A / a  ≤  n0 / margin,
//
// therefore generalizes to a shared-floor form with an external residual
// load L = Σ_j β_j·A_j contributed by the other sessions (β = rx/(n0·C)
// per unit of linear amplification):
//
//	β·A² + (1+L)·A  ≤  target,   target = 10^((a − margin)/10).
//
// BudgetAccount tracks the admitted sessions' contributions and answers
// the daemon's admission question: can a new session be granted a useful
// amplification without pushing any already-granted session past its own
// recomputed bound? With L = 0 the bound reduces bit-exactly to
// ChooseAmplificationResidualDB, so the account is a strict superset of
// the single-session rule.

// SessionBudget is the physics a session declares at admission time: the
// inputs of the Sec 3.5 amplification rule for that session.
type SessionBudget struct {
	// CancellationDB is the session's self-interference cancellation C
	// (+Inf models an ideal canceller: no residual contribution).
	CancellationDB float64
	// RDAttenDB is the relay→destination path attenuation a (positive dB).
	RDAttenDB float64
	// PAHeadroomDB is maxTxPower − rxPowerAtRelay in dB.
	PAHeadroomDB float64
	// RxOverNoiseDB is the received signal-to-thermal-noise ratio rx/n0.
	RxOverNoiseDB float64
}

// betaOf returns β = rx/(n0·C): the session's residual weight relative to
// thermal noise per unit of linear amplification. 0 for an ideal
// canceller.
func betaOf(s SessionBudget) float64 {
	return math.Pow(10, (s.RxOverNoiseDB-s.CancellationDB)/10)
}

// noiseBoundShared solves the shared-floor noise rule for the largest
// admissible linear amplification: the positive root of
// β·A² + (1+L)·A − target, in the rationalized form that stays stable as
// β → 0 (the naive (√((1+L)²+4βt)−(1+L))/(2β) cancels catastrophically
// there and collapses to zero gain). extLoad is L, the other sessions'
// aggregate residual load.
func noiseBoundShared(beta, extLoad, target float64) float64 {
	ext := 1 + extLoad
	if beta <= 0 {
		return target / ext
	}
	return 2 * target / (ext + math.Sqrt(ext*ext+4*beta*target))
}

// decisionUnderLoad applies the full amplification rule for one session
// whose receiver floor carries an external residual load. extLoad 0
// reproduces ChooseAmplificationResidualDB bit-exactly (the same guard,
// the same rationalized root).
func decisionUnderLoad(s SessionBudget, extLoad float64) AmpDecision {
	noiseBound := s.RDAttenDB - cnf.NoiseMarginDB
	beta := betaOf(s)
	if extLoad > 0 || (beta > 0 && !math.IsInf(s.CancellationDB, 1)) {
		target := math.Pow(10, noiseBound/10)
		a := noiseBoundShared(beta, extLoad, target)
		noiseBound = 10 * math.Log10(a)
	}
	return chooseAmp(s.CancellationDB, noiseBound, s.PAHeadroomDB, true)
}

// ampSlackDB absorbs float noise when a member's granted amplification is
// compared against its recomputed bound: a violation must exceed this to
// count. Far below any physically meaningful margin.
const ampSlackDB = 1e-9

// AdmissionError reports why BudgetAccount refused a session.
type AdmissionError struct {
	// Reason is a stable machine-readable cause:
	// "duplicate_id", "below_min_amp", or "member_violation".
	Reason string
	// Session names the session the refusal protects: the candidate for
	// below_min_amp, the already-admitted member whose granted
	// amplification the candidate would invalidate for member_violation.
	Session string
	// AmpDB is the amplification at the refusal point: the candidate's
	// infeasible grant, or the violated member's recomputed bound.
	AmpDB float64
}

// Error formats the refusal for logs and refuse frames.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("relay budget: %s (session %q, amp %.3f dB)", e.Reason, e.Session, e.AmpDB)
}

// budgetMember is one admitted session's sticky grant.
type budgetMember struct {
	id   string
	sb   SessionBudget
	dec  AmpDecision
	beta float64
	// load is β·A (linear): this member's residual contribution to the
	// shared floor.
	load float64
}

// BudgetAccount is the aggregate Sec 3.5 amplification/cancellation
// budget of one relay front-end. Admitted sessions hold their granted
// amplification until released (grants are sticky — a running session's
// gain is not re-tuned under it); admission of a new session succeeds
// only if every sticky grant remains within its recomputed shared-floor
// bound. Members are kept in admission order, so all accounting is
// deterministic. Not safe for concurrent use; the daemon serializes
// access under its own lock.
type BudgetAccount struct {
	minAmpDB float64
	members  []budgetMember
}

// NewBudgetAccount creates an empty account. minAmpDB is the smallest
// amplification worth granting: a session whose bound falls below it
// (or hits the 0 dB floor) is refused rather than admitted uselessly.
func NewBudgetAccount(minAmpDB float64) *BudgetAccount {
	return &BudgetAccount{minAmpDB: minAmpDB}
}

// MinAmpDB returns the configured admission threshold.
func (b *BudgetAccount) MinAmpDB() float64 { return b.minAmpDB }

// Len returns the number of admitted sessions.
func (b *BudgetAccount) Len() int { return len(b.members) }

// ResidualLoad returns the aggregate residual load L = Σ β_i·A_i (linear,
// relative to thermal noise) of all admitted sessions.
func (b *BudgetAccount) ResidualLoad() float64 {
	var l float64
	for i := range b.members {
		l += b.members[i].load
	}
	return l
}

// loadExcluding sums every member's residual load except index skip
// (-1 sums all).
func (b *BudgetAccount) loadExcluding(skip int) float64 {
	var l float64
	for i := range b.members {
		if i != skip {
			l += b.members[i].load
		}
	}
	return l
}

// admissible reports whether a decision clears the account's threshold:
// a positive grant of at least minAmpDB that did not hit the floor clamp.
func (b *BudgetAccount) admissible(dec AmpDecision) bool {
	return dec.Bound != AmpBoundFloor && dec.AmpDB >= b.minAmpDB
}

// violatedMember recomputes every member's shared-floor bound with the
// candidate contributing candLoad and returns the first member whose
// sticky grant exceeds it (admission order), or -1 when all grants hold.
func (b *BudgetAccount) violatedMember(candLoad float64) int {
	for i := range b.members {
		ext := b.loadExcluding(i) + candLoad
		bound := decisionUnderLoad(b.members[i].sb, ext)
		if b.members[i].dec.AmpDB > bound.AmpDB+ampSlackDB {
			return i
		}
	}
	return -1
}

// Preview evaluates the strict admission decision for a candidate without
// admitting it: the amplification it would be granted and whether
// admission would succeed.
func (b *BudgetAccount) Preview(s SessionBudget) (AmpDecision, bool) {
	dec := decisionUnderLoad(s, b.ResidualLoad())
	if !b.admissible(dec) {
		return dec, false
	}
	candLoad := betaOf(s) * math.Pow(10, dec.AmpDB/10)
	return dec, b.violatedMember(candLoad) < 0
}

// Admit applies the strict policy: the candidate is granted the full
// shared-floor bound or refused. Refusal returns an *AdmissionError
// (below_min_amp when the candidate's own bound is too small to help,
// member_violation when granting it would push an admitted session past
// its recomputed bound) and leaves the account unchanged.
func (b *BudgetAccount) Admit(id string, s SessionBudget) (AmpDecision, error) {
	if b.find(id) >= 0 {
		return AmpDecision{}, &AdmissionError{Reason: "duplicate_id", Session: id}
	}
	dec := decisionUnderLoad(s, b.ResidualLoad())
	if !b.admissible(dec) {
		return dec, &AdmissionError{Reason: "below_min_amp", Session: id, AmpDB: dec.AmpDB}
	}
	beta := betaOf(s)
	candLoad := beta * math.Pow(10, dec.AmpDB/10)
	if i := b.violatedMember(candLoad); i >= 0 {
		m := &b.members[i]
		bound := decisionUnderLoad(m.sb, b.loadExcluding(i)+candLoad)
		return dec, &AdmissionError{Reason: "member_violation", Session: m.id, AmpDB: bound.AmpDB}
	}
	b.members = append(b.members, budgetMember{id: id, sb: s, dec: dec, beta: beta, load: candLoad})
	return dec, nil
}

// degradeIterations bounds the bisection of AdmitDegraded; 64 halvings
// drive the bracket below any representable dB difference.
const degradeIterations = 64

// AdmitDegraded applies the degrade policy: when the strict grant would
// violate an admitted member, the candidate's amplification is bisected
// down (members' sticky grants are never touched) to the largest value
// every member tolerates. The returned bool reports whether the grant
// was degraded below the strict bound. Refusal (*AdmissionError) happens
// only when even minAmpDB is intolerable or the candidate's own bound is
// below the threshold.
func (b *BudgetAccount) AdmitDegraded(id string, s SessionBudget) (AmpDecision, bool, error) {
	if b.find(id) >= 0 {
		return AmpDecision{}, false, &AdmissionError{Reason: "duplicate_id", Session: id}
	}
	dec := decisionUnderLoad(s, b.ResidualLoad())
	if !b.admissible(dec) {
		return dec, false, &AdmissionError{Reason: "below_min_amp", Session: id, AmpDB: dec.AmpDB}
	}
	beta := betaOf(s)
	strictLin := math.Pow(10, dec.AmpDB/10)
	if b.violatedMember(beta*strictLin) < 0 {
		b.members = append(b.members, budgetMember{id: id, sb: s, dec: dec, beta: beta, load: beta * strictLin})
		return dec, false, nil
	}
	// β = 0 contributes no load, so a violation cannot be the candidate's
	// doing; the strict check above would not have failed.
	minLin := math.Pow(10, b.minAmpDB/10)
	if b.violatedMember(beta*minLin) >= 0 {
		i := b.violatedMember(beta * minLin)
		m := &b.members[i]
		bound := decisionUnderLoad(m.sb, b.loadExcluding(i)+beta*minLin)
		return dec, false, &AdmissionError{Reason: "member_violation", Session: m.id, AmpDB: bound.AmpDB}
	}
	// Bisect the largest tolerable grant in [minLin, strictLin]: load is
	// monotone in the grant, so feasibility is monotone too.
	lo, hi := minLin, strictLin
	for k := 0; k < degradeIterations; k++ {
		mid := lo + (hi-lo)/2
		if b.violatedMember(beta*mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	granted := AmpDecision{
		AmpDB:               10 * math.Log10(lo),
		Bound:               AmpBoundBudget,
		StabilityHeadroomDB: s.CancellationDB - 10*math.Log10(lo),
	}
	b.members = append(b.members, budgetMember{id: id, sb: s, dec: granted, beta: beta, load: beta * lo})
	return granted, true, nil
}

// Release removes an admitted session, returning its residual
// contribution to the shared pool. Reports whether the id was admitted.
func (b *BudgetAccount) Release(id string) bool {
	i := b.find(id)
	if i < 0 {
		return false
	}
	b.members = append(b.members[:i], b.members[i+1:]...)
	return true
}

// Decision returns the sticky grant of an admitted session.
func (b *BudgetAccount) Decision(id string) (AmpDecision, bool) {
	if i := b.find(id); i >= 0 {
		return b.members[i].dec, true
	}
	return AmpDecision{}, false
}

// find returns the member index of id, or -1. Linear scan: accounts hold
// tens of sessions, and the slice keeps admission order deterministic.
func (b *BudgetAccount) find(id string) int {
	for i := range b.members {
		if b.members[i].id == id {
			return i
		}
	}
	return -1
}
