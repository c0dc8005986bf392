package relay

import (
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/impair"
	"fastforward/internal/rng"
)

// TestFFRelayGolden pins the relay device's transmitted samples with
// every part of its forward path engaged: receive noise and injected
// probe noise, a three-tap SI channel against a mismatched canceller,
// CFO removal and restoration around a multi-tap CNF pre-filter, the
// harsh impairment profile on both chains, and a three-sample pipeline
// delay. Every 17th sample and the total energy are pinned. Re-baseline
// with -update.
func TestFFRelayGolden(t *testing.T) {
	prof, ok := impair.ByName("harsh")
	if !ok {
		t.Fatal("harsh impairment profile missing")
	}
	r := New(Config{
		SampleRate:           20e6,
		AmplificationDB:      12,
		PipelineDelaySamples: 3,
		PreFilterTaps:        []complex128{0.9, 0.2 - 0.1i, 0.05i, -0.02},
		CFOHz:                137e3,
		SIChannelTaps:        []complex128{0.05, 0.02i, -0.01},
		CancelTaps:           []complex128{0.049, 0.021i, -0.0098},
		InjectNoiseMW:        1e-3,
		NoiseSource:          rng.New(5),
		RxNoiseMW:            1e-4,
		Impair:               &prof,
		ImpairSource:         impair.Source(5, 0),
	})
	in := rng.New(6).NoiseVector(2048, 1)
	out := r.Process(in)
	got := map[string]float64{}
	var e float64
	for i, v := range out {
		e += real(v)*real(v) + imag(v)*imag(v)
		if i%17 == 0 || i == len(out)-1 {
			got[golden.Key("relay", i, "re")] = real(v)
			got[golden.Key("relay", i, "im")] = imag(v)
		}
	}
	got["relay.energy"] = e
	golden.Check(t, "testdata/ff_relay_golden.json", got)
}
