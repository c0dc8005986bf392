package relay

import (
	"math"

	"fastforward/internal/cnf"
)

// AmpBound names which constraint of the Sec 3.5 amplification rule
//
//	A = min(C − stability margin, a − noise margin, PA headroom)
//
// was the binding one — the quantity a run manifest records so a
// regression in any single bound (e.g. the analog tuner degrading C) is
// visible even when the end-to-end throughput barely moves.
type AmpBound int

const (
	// AmpBoundCancellation: the feedback-stability bound C − margin was
	// active (Fig 7 — amplifying past isolation oscillates).
	AmpBoundCancellation AmpBound = iota
	// AmpBoundNoiseRule: the Sec 3.5 noise rule a − 3 dB was active (relay
	// noise must land below the destination's noise floor).
	AmpBoundNoiseRule
	// AmpBoundPALimit: the relay's transmit power amplifier cap was active.
	AmpBoundPALimit
	// AmpBoundFloor: every bound was negative, so amplification clamps to
	// 0 dB (the relay cannot help at this placement).
	AmpBoundFloor
	// AmpBoundBudget: the aggregate multi-session admission budget was
	// active — the grant was bisected below the session's own bounds so
	// already-admitted sessions keep theirs (relayd.Gate's degrade policy).
	AmpBoundBudget
)

// ampBoundNames is the one name table of AmpBound: the wire names an
// ACCEPT frame, /status and a manifest carry, indexed by the enum value.
var ampBoundNames = [...]string{
	AmpBoundCancellation: "cancellation",
	AmpBoundNoiseRule:    "noise_rule",
	AmpBoundPALimit:      "pa_limit",
	AmpBoundFloor:        "floor",
	AmpBoundBudget:       "budget",
}

// String names the bound for metrics and manifests.
func (b AmpBound) String() string {
	if b >= 0 && int(b) < len(ampBoundNames) {
		return ampBoundNames[b]
	}
	return "unknown"
}

// ParseAmpBound inverts String: it maps a bound's wire name (as carried
// in an ACCEPT frame or a manifest) back to the enum value, reporting
// whether the name is known.
func ParseAmpBound(s string) (AmpBound, bool) {
	for b, name := range ampBoundNames {
		if name == s {
			return AmpBound(b), true
		}
	}
	return 0, false
}

// AmpDecision is the outcome of the relay's amplification choice.
type AmpDecision struct {
	// AmpDB is the chosen power amplification (>= 0).
	AmpDB float64
	// Bound identifies which term of the min() produced AmpDB.
	Bound AmpBound
	// StabilityHeadroomDB is cancellation − AmpDB: the margin to the
	// positive-feedback instability of Fig 7. Never below the configured
	// stability margin unless the floor clamp raised it.
	StabilityHeadroomDB float64
}

// ChooseAmplificationDB applies the full device-level amplification rule:
// the cancellation-bounded stability term and Sec 3.5 noise rule of
// cnf.AmplificationLimitDB, plus the power-amplifier cap that hardware
// adds on top. rdAttenDB is the relay→destination path attenuation
// (positive dB); paHeadroomDB is maxTxPower − rxPowerAtRelay in dB (how
// much gain the PA allows before clipping); noiseRule false disables the
// Sec 3.5 back-off (the blind repeater of Sec 5.5 amplifies to the
// maximum extent).
func ChooseAmplificationDB(cancellationDB, rdAttenDB, paHeadroomDB float64, noiseRule bool) AmpDecision {
	return chooseAmp(cancellationDB, rdAttenDB-cnf.NoiseMarginDB, paHeadroomDB, noiseRule)
}

// ChooseAmplificationResidualDB is ChooseAmplificationDB with the noise
// rule made self-interference-aware: with finite cancellation the relay's
// receiver noise is not just thermal but n0 + rx·A/C (the residual its own
// transmission leaves behind the canceller), plus extLoad, the residual
// load L other sessions sharing the receiver put on it (budget.go), and
// that elevated floor is what gets amplified toward the destination. The
// Sec 3.5 condition "injected noise ≥ 3 dB below the destination floor"
// then reads
//
//	(n0·(1+L) + rx·A/C) · A / a  ≤  n0 / margin
//
// whose positive root replaces the plain a − 3 dB bound. As C → ∞ with
// L = 0 the residual term vanishes and the bound reduces exactly to
// a − 3 dB, so this only backs off further when cancellation has degraded
// or the floor is shared — the graceful-degradation path calls it with
// L = 0, the admission ledger (relayd.Gate) with the other members' load;
// the ideal path keeps the closed-form rule.
func ChooseAmplificationResidualDB(s SessionBudget, extLoad float64, noiseRule bool) AmpDecision {
	noiseBound := s.RDAttenDB - cnf.NoiseMarginDB
	beta := s.ResidualWeight()
	if extLoad > 0 || (beta > 0 && !math.IsInf(s.CancellationDB, 1)) {
		target := math.Pow(10, noiseBound/10)
		a := noiseBoundShared(beta, extLoad, target)
		noiseBound = 10 * math.Log10(a)
	}
	return chooseAmp(s.CancellationDB, noiseBound, s.PAHeadroomDB, noiseRule)
}

// chooseAmp is the shared min() core; noiseBoundDB is the already-margined
// noise-rule term.
func chooseAmp(cancellationDB, noiseBoundDB, paHeadroomDB float64, noiseRule bool) AmpDecision {
	amp := cancellationDB - cnf.StabilityMarginDB
	bound := AmpBoundCancellation
	if noiseRule {
		if noiseBoundDB < amp {
			amp = noiseBoundDB
			bound = AmpBoundNoiseRule
		}
	}
	if paHeadroomDB < amp {
		amp = paHeadroomDB
		bound = AmpBoundPALimit
	}
	if amp < 0 {
		amp = 0
		bound = AmpBoundFloor
	}
	return AmpDecision{
		AmpDB:               amp,
		Bound:               bound,
		StabilityHeadroomDB: cancellationDB - amp,
	}
}
