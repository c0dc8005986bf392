package sic

import (
	"math"
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/impair"
	"fastforward/internal/rng"
)

// TestTuneGolden pins the analog tuner bit for bit: every attenuator it
// sets, its return, its LastTune stats and the cancellation the tuned
// setting keeps on a drifted channel, for seeds 1–4 at NFreq 8 and 16,
// plus every field of a drift characterization under the moderate
// profile. An off tap (+Inf) is recorded as −1, since only finite values
// can be baselined. Re-baseline with -update.
func TestTuneGolden(t *testing.T) {
	const bw = 20e6
	got := map[string]float64{}
	for seed := int64(1); seed <= 4; seed++ {
		for _, nFreq := range []int{8, 16} {
			si := NewTypicalSIChannel(rng.New(seed))
			a := NewAnalogCanceller(1.0)
			pre := golden.Key("tune", int(seed), nFreq)
			got[pre+".return_db"] = a.Tune(si, bw, nFreq)
			got[pre+".unquantized_db"] = a.LastTune.UnquantizedDB
			got[pre+".quantized_db"] = a.LastTune.QuantizedDB
			got[pre+".refine_iterations"] = float64(a.LastTune.RefineIterations)
			for k, att := range a.AttenDB {
				if math.IsInf(att, 1) {
					att = -1
				}
				got[golden.Key(pre, "atten_db", k)] = att
			}
			drifted := si.Drift(rng.New(seed+50), 0.9)
			got[pre+".drifted_db"] = a.CancellationDB(drifted, bw, nFreq)
		}
	}

	p, ok := impair.ByName("moderate")
	if !ok {
		t.Fatal("no moderate impairment profile")
	}
	for i, dc := range CharacterizeDrift(rng.New(7), DefaultCharacterizeConfig(2), &p, 3, 0.8, nil) {
		pre := golden.Key("drift", i)
		got[pre+".initial_db"] = dc.InitialDB
		got[pre+".min_achieved_db"] = dc.MinAchievedDB
		got[pre+".retunes"] = float64(dc.Retunes)
		got[pre+".floor_db"] = dc.FloorDB
		got[pre+".effective_total_db"] = dc.EffectiveTotalDB
		for s, st := range dc.Steps {
			got[golden.Key(pre, "step", s, "achieved_db")] = st.AchievedDB
			retuned := 0.0
			if st.Retuned {
				retuned = 1
			}
			got[golden.Key(pre, "step", s, "retuned")] = retuned
		}
	}
	golden.Check(t, "testdata/tune_golden.json", got)
}
