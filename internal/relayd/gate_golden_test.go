package relayd

import (
	"math"
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/relay"
)

// gateGoldenCodes indexes the refuse code a step records: 0 is an
// admission (or a release), the rest are the Gate's two wire codes.
var gateGoldenCodes = []string{"", RefuseSessionLimit, RefuseBudget}

// gateGoldenStep is one operation of the pinned sequence: an admission
// of budget under id, or (release true) a release of id.
type gateGoldenStep struct {
	id      string
	budget  relay.SessionBudget
	release bool
}

// gateGoldenSequence mixes every admission regime against one shared
// floor: well-cancelled, noisy, PA-bound and ideal-canceller (C = +Inf)
// budgets, a floor-clamped placement, a heavy-residual candidate whose
// strict grant violates an admitted member (the degrading gate bisects
// it), a duplicate id, a cap refusal, releases of admitted and unknown
// ids, and re-admissions after them.
func gateGoldenSequence() []gateGoldenStep {
	well := relay.SessionBudget{CancellationDB: 110, RDAttenDB: 80, PAHeadroomDB: 40, RxOverNoiseDB: 30}
	paBound := relay.SessionBudget{CancellationDB: 95, RDAttenDB: 40, PAHeadroomDB: 10, RxOverNoiseDB: 30}
	ideal := relay.SessionBudget{CancellationDB: math.Inf(1), RDAttenDB: 80, PAHeadroomDB: 30, RxOverNoiseDB: 40}
	useless := relay.SessionBudget{CancellationDB: 2, RDAttenDB: 1, PAHeadroomDB: 1, RxOverNoiseDB: 10}
	heavy := relay.SessionBudget{CancellationDB: 40, RDAttenDB: 60, PAHeadroomDB: 40, RxOverNoiseDB: 60}
	noisy := relay.SessionBudget{CancellationDB: 55, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 52}
	return []gateGoldenStep{
		{id: "well", budget: well},
		{id: "pa", budget: paBound},
		{id: "ideal", budget: ideal},
		{id: "well", budget: noisy}, // duplicate id
		{id: "useless", budget: useless},
		{id: "heavy", budget: heavy},
		{id: "noisy-a", budget: noisy},
		{id: "noisy-b", budget: noisy},
		{id: "ideal-b", budget: ideal},
		{id: "ideal-c", budget: ideal},
		{id: "noisy-a", release: true},
		{id: "ideal-b", release: true},
		{id: "heavy", release: true},
		{id: "noisy-a", budget: noisy}, // re-admission after release
		{id: "well-b", budget: well},
	}
}

// gateGoldenDetails is every refusal's Detail, byte for byte, per gate
// and step: the text a REFUSE frame carries.
var gateGoldenDetails = map[string]map[int]string{
	"strict": {
		3:  `relay budget: duplicate_id (session "well", amp 0.000 dB)`,
		4:  `relay budget: below_min_amp (session "useless", amp 0.000 dB)`,
		5:  `relay budget: member_violation (session "well", amp 38.500 dB)`,
		7:  `relay budget: member_violation (session "noisy-a", amp 23.667 dB)`,
		9:  `max_sessions=5 reached`,
		14: `relay budget: member_violation (session "noisy-a", amp 24.986 dB)`,
	},
	"degrade": {
		3: `relay budget: duplicate_id (session "well", amp 0.000 dB)`,
		4: `relay budget: below_min_amp (session "useless", amp 0.000 dB)`,
		6: `relay budget: member_violation (session "pa", amp 9.991 dB)`,
		7: `relay budget: member_violation (session "pa", amp 9.991 dB)`,
		9: `max_sessions=5 reached`,
	},
}

// TestGateGolden pins the admission domain bit for bit: one strict and
// one degrading gate run the same mixed sequence, and each step records
// every AmpDecision field, the degraded flag, the refuse code and the
// gate's residual load afterwards. Refusal details are compared against
// gateGoldenDetails. Re-baseline with -update.
func TestGateGolden(t *testing.T) {
	const cap, minAmpDB = 5, 3
	got := map[string]float64{}
	for _, policy := range []struct {
		name    string
		degrade bool
	}{{"strict", false}, {"degrade", true}} {
		g := NewGate(cap, minAmpDB, policy.degrade)
		details := map[int]string{}
		for i, st := range gateGoldenSequence() {
			if st.release {
				released := g.Release(st.id)
				got[golden.Key(policy.name, i, "released")] = b2f(released)
				got[golden.Key(policy.name, i, "residual_load")] = g.ResidualLoad()
				continue
			}
			dec, degraded, ref := g.Admit(st.id, st.budget)
			code := 0
			if ref != nil {
				code = -1
				for c, name := range gateGoldenCodes {
					if c > 0 && ref.Code == name {
						code = c
					}
				}
				if code < 0 {
					t.Fatalf("%s step %d: unexpected refuse code %q", policy.name, i, ref.Code)
				}
				details[i] = ref.Detail
			}
			got[golden.Key(policy.name, i, "amp_db")] = dec.AmpDB
			got[golden.Key(policy.name, i, "bound")] = float64(dec.Bound)
			if math.IsInf(dec.StabilityHeadroomDB, 1) {
				got[golden.Key(policy.name, i, "headroom_db_inf")] = 1
			} else {
				got[golden.Key(policy.name, i, "headroom_db")] = dec.StabilityHeadroomDB
			}
			got[golden.Key(policy.name, i, "degraded")] = b2f(degraded)
			got[golden.Key(policy.name, i, "refuse_code")] = float64(code)
			got[golden.Key(policy.name, i, "residual_load")] = g.ResidualLoad()
		}
		want := gateGoldenDetails[policy.name]
		for i, d := range details {
			if want[i] != d {
				t.Errorf("%s step %d: refusal detail %q, want %q", policy.name, i, d, want[i])
			}
		}
		for i, w := range want {
			if _, ok := details[i]; !ok {
				t.Errorf("%s step %d: admitted, want refusal %q", policy.name, i, w)
			}
		}
	}
	golden.Check(t, "testdata/gate_golden.json", got)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
