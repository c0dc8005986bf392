package relay

import "math"

// This file is the multi-session physics of the Sec 3.5 amplification
// rule. A single relay front-end serving several concurrent full-duplex
// sessions shares one receiver noise floor: every admitted session's
// residual self-interference (rx·A/C, the part its canceller leaves
// behind) raises the floor that every *other* session's amplifier then
// forwards toward its destination. The per-session residual rule,
//
//	(n0 + rx·A/C) · A / a  ≤  n0 / margin,
//
// therefore generalizes to a shared-floor form with an external residual
// load L = Σ_j β_j·A_j contributed by the other sessions (β = rx/(n0·C)
// per unit of linear amplification):
//
//	β·A² + (1+L)·A  ≤  target,   target = 10^((a − margin)/10).
//
// ChooseAmplificationResidualDB solves it for one session at a given L;
// the admission ledger that sums L over admitted sessions and decides who
// fits is relayd.Gate.

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

// ResidualWeight returns β = rx/(n0·C): the session's residual weight
// relative to thermal noise per unit of linear amplification, so a grant
// of A (linear) adds β·A to the shared floor's load. 0 for an ideal
// canceller.
func (s SessionBudget) ResidualWeight() float64 {
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
