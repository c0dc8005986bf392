package relay

import (
	"testing"

	"fastforward/internal/golden"
)

// TestAmpDecisionGolden pins the amplification rule across its operating
// regimes — each bound binding, the floor clamp, degraded cancellation,
// and the residual-aware noise rule — so a change to margins or the
// bound ordering is caught bit-level. Re-baseline with -update.
func TestAmpDecisionGolden(t *testing.T) {
	type c struct {
		name           string
		cDB, aDB, paDB float64
		rxOverN0DB     float64 // <0: plain rule
		noiseRule      bool
	}
	cases := []c{
		{"cancellation_bound", 40, 80, 60, -1, true},
		{"noise_rule_bound", 110, 50, 60, -1, true},
		{"pa_bound", 110, 80, 30, -1, true},
		{"floor_clamp", 2, 1, 1, -1, true},
		{"no_noise_rule", 110, 50, 60, -1, false},
		{"degraded_c", 28, 60, 60, -1, true},
		{"residual_mild", 48, 60, 60, 45, true},
		{"residual_severe", 28, 60, 60, 45, true},
		{"residual_ideal_c", 110, 60, 60, 45, true},
	}
	got := map[string]float64{}
	for _, tc := range cases {
		var d AmpDecision
		if tc.rxOverN0DB >= 0 {
			d = residualDecision(tc.cDB, tc.aDB, tc.paDB, tc.rxOverN0DB, tc.noiseRule)
		} else {
			d = ChooseAmplificationDB(tc.cDB, tc.aDB, tc.paDB, tc.noiseRule)
		}
		got[golden.Key("amp", tc.name, "db")] = d.AmpDB
		got[golden.Key("amp", tc.name, "bound")] = float64(d.Bound)
		got[golden.Key("amp", tc.name, "headroom_db")] = d.StabilityHeadroomDB
	}
	golden.Check(t, "testdata/amp_golden.json", got)
}
