package impair

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Named profiles form the severity ladder the degradation scenarios sweep.
// Magnitudes are chosen so the cancellation floors are strictly ordered
// (ideal > mild > moderate > severe > harsh) — the monotonicity the
// degradation acceptance test pins — and sit in the ranges the transceiver
// literature reports for consumer-grade radios.
var named = map[string]Profile{
	"ideal": {Name: "ideal"},
	// CFO values are *residual* offsets after the transceiver's own
	// correction (Sec 4.1 removal/restoration); raw oscillator offsets are
	// kHz-scale but the canceller only sees what correction leaves behind.
	// Resulting cancellation floors: mild ≈49, moderate ≈37, severe ≈28,
	// harsh ≈21 dB (see TestSeverityLadderFloorsMonotone).
	"mild": {
		Name:             "mild",
		CFOHz:            2,
		PhaseNoiseRadRMS: 2e-5,
		IQGainMismatchDB: 0.02,
		IQPhaseErrorDeg:  0.1,
		ADCBits:          12,
		ADCClipBackoffDB: 14,
		PAInputBackoffDB: 12,
		PASmoothness:     3,
		CSIAgeMs:         25,
		CoherenceMs:      400,
		SoundingLossProb: 0.02,
	},
	"moderate": {
		Name:                "moderate",
		CFOHz:               8,
		PhaseNoiseRadRMS:    5e-5,
		IQGainMismatchDB:    0.05,
		IQPhaseErrorDeg:     0.3,
		ADCBits:             10,
		ADCClipBackoffDB:    12,
		PAInputBackoffDB:    12,
		PASmoothness:        2,
		CSIAgeMs:            50,
		CoherenceMs:         300,
		SoundingLossProb:    0.05,
		SoundingCorruptProb: 0.05,
	},
	"severe": {
		Name:                "severe",
		CFOHz:               25,
		PhaseNoiseRadRMS:    2e-4,
		IQGainMismatchDB:    0.2,
		IQPhaseErrorDeg:     1.0,
		ADCBits:             8,
		ADCClipBackoffDB:    10,
		PAInputBackoffDB:    9,
		PASmoothness:        2,
		CSIAgeMs:            100,
		CoherenceMs:         200,
		SoundingLossProb:    0.15,
		SoundingCorruptProb: 0.1,
	},
	"harsh": {
		Name:                "harsh",
		CFOHz:               50,
		PhaseNoiseRadRMS:    5e-4,
		IQGainMismatchDB:    0.4,
		IQPhaseErrorDeg:     2.0,
		ADCBits:             6,
		ADCClipBackoffDB:    8,
		PAInputBackoffDB:    6,
		PASmoothness:        2,
		CSIAgeMs:            200,
		CoherenceMs:         150,
		SoundingLossProb:    0.3,
		SoundingCorruptProb: 0.2,
	},
	// Single-axis profiles isolate one impairment at "severe" strength for
	// attribution sweeps.
	"cfo":        {Name: "cfo", CFOHz: 25},
	"phasenoise": {Name: "phasenoise", PhaseNoiseRadRMS: 2e-4},
	"iq":         {Name: "iq", IQGainMismatchDB: 0.2, IQPhaseErrorDeg: 1.0},
	"adc":        {Name: "adc", ADCBits: 8, ADCClipBackoffDB: 10},
	"pa":         {Name: "pa", PAInputBackoffDB: 9, PASmoothness: 2},
	"stale-csi":  {Name: "stale-csi", CSIAgeMs: 100, CoherenceMs: 200},
	"lost-sounding": {Name: "lost-sounding",
		SoundingLossProb: 0.15, SoundingCorruptProb: 0.1,
		CSIAgeMs: 50, CoherenceMs: 300},
}

// SeverityLadder returns the composite profiles ordered from ideal to
// worst — the default degradation sweep.
func SeverityLadder() []Profile {
	out := make([]Profile, 0, len(severityOrder))
	for _, n := range severityOrder {
		out = append(out, named[n])
	}
	return out
}

// severityOrder names the ladder rungs from ideal (0) to harsh (4).
var severityOrder = []string{"ideal", "mild", "moderate", "severe", "harsh"}

// SeverityRank returns a profile name's position on the severity ladder
// (0 = ideal … 4 = harsh) and true, or (0, false) for names that are not
// ladder rungs (including the single-axis attribution profiles). The
// fleet layer uses ranks as relay health states, so hysteresis thresholds
// compare ranks, never strings.
func SeverityRank(name string) (int, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for i, n := range severityOrder {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// SeverityName returns the ladder rung name for a rank (clamped to the
// ladder's ends), the inverse of SeverityRank.
func SeverityName(rank int) string {
	if rank < 0 {
		rank = 0
	}
	if rank >= len(severityOrder) {
		rank = len(severityOrder) - 1
	}
	return severityOrder[rank]
}

// Names lists every named profile, sorted.
func Names() []string {
	out := make([]string, 0, len(named))
	for n := range named {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	p, ok := named[strings.ToLower(strings.TrimSpace(name))]
	return p, ok
}

// Parse resolves a -impair flag value: either a profile name ("moderate")
// or a comma-separated key=value list overlaid on a base profile
// ("severe,cfo_hz=500,csi_age_ms=80"). An empty string is the ideal
// profile. Values must be finite; adc_bits must be a whole number in
// [0, 62], probabilities must lie in [0, 1], and ages, coherence, phase
// noise and PA smoothness must not be negative.
func Parse(s string) (Profile, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return named["ideal"], nil
	}
	parts := strings.Split(s, ",")
	base := named["ideal"]
	custom := false
	if p, ok := ByName(parts[0]); ok {
		base = p
		parts = parts[1:]
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Profile{}, fmt.Errorf("impair: %q is neither a profile name (%s) nor key=value", part, strings.Join(Names(), ", "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return Profile{}, fmt.Errorf("impair: bad value in %q: %v", part, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Profile{}, fmt.Errorf("impair: %q is not finite", part)
		}
		custom = true
		// Each key's admissible range: nonNeg and prob bound the value;
		// adc_bits must also be whole (the quantizer shifts by bits−1).
		var nonNeg, prob bool
		switch strings.ToLower(strings.TrimSpace(kv[0])) {
		case "cfo_hz":
			base.CFOHz = v
		case "phase_noise_rad":
			base.PhaseNoiseRadRMS, nonNeg = v, true
		case "iq_gain_db":
			base.IQGainMismatchDB = v
		case "iq_phase_deg":
			base.IQPhaseErrorDeg = v
		case "adc_bits":
			if v != math.Trunc(v) || v < 0 || v > 62 {
				return Profile{}, fmt.Errorf("impair: %q: adc_bits must be a whole number in [0, 62]", part)
			}
			base.ADCBits = int(v)
		case "adc_clip_db":
			base.ADCClipBackoffDB = v
		case "pa_backoff_db":
			base.PAInputBackoffDB = v
		case "pa_smoothness":
			base.PASmoothness, nonNeg = v, true
		case "csi_age_ms":
			base.CSIAgeMs, nonNeg = v, true
		case "coherence_ms":
			base.CoherenceMs, nonNeg = v, true
		case "sounding_loss":
			base.SoundingLossProb, prob = v, true
		case "sounding_corrupt":
			base.SoundingCorruptProb, prob = v, true
		default:
			return Profile{}, fmt.Errorf("impair: unknown key %q", kv[0])
		}
		if nonNeg && v < 0 {
			return Profile{}, fmt.Errorf("impair: %q must not be negative", part)
		}
		if prob && (v < 0 || v > 1) {
			return Profile{}, fmt.Errorf("impair: %q: a probability must lie in [0, 1]", part)
		}
	}
	if custom {
		base.Name = s
	}
	return base, nil
}
