package relay

import (
	"testing"

	"fastforward/internal/cnf"
)

func TestChooseAmplificationDB(t *testing.T) {
	cases := []struct {
		name                    string
		cancel, rdAtten, paHead float64
		noiseRule               bool
		wantAmp                 float64
		wantBound               AmpBound
	}{
		{"cancellation binds", 60, 100, 100, true, 57, AmpBoundCancellation},
		{"noise rule binds", 110, 80, 100, true, 77, AmpBoundNoiseRule},
		{"noise rule disabled", 110, 80, 200, false, 107, AmpBoundCancellation},
		{"pa binds", 110, 100, 50, true, 50, AmpBoundPALimit},
		{"floor clamp", 2, 1, 100, true, 0, AmpBoundFloor},
	}
	for _, c := range cases {
		got := ChooseAmplificationDB(c.cancel, c.rdAtten, c.paHead, c.noiseRule)
		if got.AmpDB != c.wantAmp || got.Bound != c.wantBound {
			t.Errorf("%s: got amp %.1f bound %s, want %.1f %s",
				c.name, got.AmpDB, got.Bound, c.wantAmp, c.wantBound)
		}
		if want := c.cancel - got.AmpDB; got.StabilityHeadroomDB != want {
			t.Errorf("%s: headroom %.1f, want %.1f", c.name, got.StabilityHeadroomDB, want)
		}
	}
}

// TestChooseAmplificationMatchesCNFRule: with no PA constraint the device
// rule must reduce to cnf.AmplificationLimitDB (the paper's
// A = min(C−3, a−3)). Guarded here so the two layers cannot drift apart.
func TestChooseAmplificationMatchesCNFRule(t *testing.T) {
	for _, c := range []struct{ cancel, rdAtten float64 }{
		{110, 80}, {60, 100}, {2, 1}, {95, 95},
	} {
		got := ChooseAmplificationDB(c.cancel, c.rdAtten, 1e9, true).AmpDB
		want := cnf.AmplificationLimitDB(c.cancel, c.rdAtten)
		if got != want {
			t.Errorf("ChooseAmplificationDB(%v,%v) = %v, want cnf rule %v",
				c.cancel, c.rdAtten, got, want)
		}
	}
}

// TestAmpBoundNames round-trips every bound through its wire name (the
// ACCEPT frame and /status carry it) and checks an unknown name and an
// out-of-range value are rejected.
func TestAmpBoundNames(t *testing.T) {
	want := map[AmpBound]string{
		AmpBoundCancellation: "cancellation",
		AmpBoundNoiseRule:    "noise_rule",
		AmpBoundPALimit:      "pa_limit",
		AmpBoundFloor:        "floor",
		AmpBoundBudget:       "budget",
	}
	for b, name := range want {
		if got := b.String(); got != name {
			t.Errorf("AmpBound(%d).String() = %q, want %q", int(b), got, name)
		}
		if got, ok := ParseAmpBound(name); !ok || got != b {
			t.Errorf("ParseAmpBound(%q) = %v, %v; want %v, true", name, got, ok, b)
		}
	}
	if got, ok := ParseAmpBound("saturated"); ok {
		t.Errorf("ParseAmpBound of an unknown name = %v, true; want false", got)
	}
	for _, b := range []AmpBound{-1, AmpBound(len(want))} {
		if got := b.String(); got != "unknown" {
			t.Errorf("out-of-range AmpBound(%d).String() = %q, want \"unknown\"", int(b), got)
		}
	}
}
