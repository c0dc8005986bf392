package relay

import (
	"math"
	"testing"

	"fastforward/internal/cnf"
)

// TestAmpBoundTieAttribution pins the tie-breaking of the min() core: each
// comparison is strict, so an exact tie keeps the earlier bound in the
// evaluation order (cancellation, then noise rule, then PA). Manifests key
// regressions off the bound name, so ties must attribute deterministically.
func TestAmpBoundTieAttribution(t *testing.T) {
	cases := []struct {
		name                    string
		cancel, rdAtten, paHead float64
		noiseRule               bool
		wantAmp                 float64
		wantBound               AmpBound
	}{
		// cancel−3 == rdAtten−3: strict < keeps cancellation.
		{"cancel ties noise rule", 60, 60, 100, true, 57, AmpBoundCancellation},
		// noise bound == PA headroom: strict < keeps noise rule.
		{"noise rule ties pa", 110, 60, 57, true, 57, AmpBoundNoiseRule},
		// cancel−3 == paHead with noise rule off: cancellation wins.
		{"cancel ties pa no noise rule", 60, 0, 57, false, 57, AmpBoundCancellation},
		// All three bounds land on the same value.
		{"triple tie", 60, 60, 57, true, 57, AmpBoundCancellation},
		// A bound of exactly 0 dB is a valid decision, not a floor clamp:
		// the floor only fires on strictly negative amplification.
		{"exactly zero is not floor", 3, 100, 100, true, 0, AmpBoundCancellation},
		{"zero pa is not floor", 110, 100, 0, true, 0, AmpBoundPALimit},
		// Infinitesimally below zero clamps and re-attributes to floor.
		{"barely negative floors", 2.9999, 100, 100, true, 0, AmpBoundFloor},
	}
	for _, c := range cases {
		got := ChooseAmplificationDB(c.cancel, c.rdAtten, c.paHead, c.noiseRule)
		if got.AmpDB != c.wantAmp || got.Bound != c.wantBound {
			t.Errorf("%s: got amp %.4f bound %s, want %.4f %s",
				c.name, got.AmpDB, got.Bound, c.wantAmp, c.wantBound)
		}
	}
}

// TestAmpDegradedCancellationTransition walks cancellation down the way the
// impairment ladder does and checks the regime change: a healthy canceller
// leaves the noise rule binding; once C − stability margin drops below the
// noise bound, attribution flips to cancellation and tracks C linearly;
// below the stability margin the floor clamps. Amplification must be
// non-increasing throughout and stability headroom never dips below the
// margin until the floor raises it.
func TestAmpDegradedCancellationTransition(t *testing.T) {
	const rdAtten, paHead = 60.0, 100.0
	noiseBound := rdAtten - cnf.NoiseMarginDB
	prev := math.Inf(1)
	sawNoise, sawCancel, sawFloor := false, false, false
	for c := 110.0; c >= 0; c -= 0.5 {
		got := ChooseAmplificationDB(c, rdAtten, paHead, true)
		if got.AmpDB > prev {
			t.Fatalf("C=%.1f: amp %.4f increased from %.4f as cancellation degraded", c, got.AmpDB, prev)
		}
		prev = got.AmpDB
		switch {
		case c-cnf.StabilityMarginDB > noiseBound:
			sawNoise = true
			if got.Bound != AmpBoundNoiseRule || got.AmpDB != noiseBound {
				t.Fatalf("C=%.1f: want noise_rule at %.1f dB, got %s at %.4f", c, noiseBound, got.Bound, got.AmpDB)
			}
		case c-cnf.StabilityMarginDB >= 0:
			sawCancel = true
			// Tie at the crossover attributes to cancellation (strict <).
			if got.Bound != AmpBoundCancellation || got.AmpDB != c-cnf.StabilityMarginDB {
				t.Fatalf("C=%.1f: want cancellation at %.4f dB, got %s at %.4f",
					c, c-cnf.StabilityMarginDB, got.Bound, got.AmpDB)
			}
			if got.StabilityHeadroomDB != cnf.StabilityMarginDB {
				t.Fatalf("C=%.1f: headroom %.4f, want the %.0f dB margin", c, got.StabilityHeadroomDB, cnf.StabilityMarginDB)
			}
		default:
			sawFloor = true
			if got.Bound != AmpBoundFloor || got.AmpDB != 0 {
				t.Fatalf("C=%.1f: want floor at 0 dB, got %s at %.4f", c, got.Bound, got.AmpDB)
			}
			if got.StabilityHeadroomDB != c {
				t.Fatalf("C=%.1f: floored headroom %.4f, want full C", c, got.StabilityHeadroomDB)
			}
		}
	}
	if !sawNoise || !sawCancel || !sawFloor {
		t.Fatalf("sweep missed a regime: noise=%v cancel=%v floor=%v", sawNoise, sawCancel, sawFloor)
	}
}

// TestResidualRuleProperties checks the self-interference-aware noise rule
// against its defining limits: it reduces exactly to the plain rule when
// cancellation is infinite or the received signal vanishes (beta → 0),
// never amplifies more than the plain rule, backs off monotonically as
// cancellation erodes or the received signal grows, and still satisfies
// the Sec 3.5 condition (n0 + rx·A/C)·A/a ≤ n0/margin with equality when
// it binds.
func TestResidualRuleProperties(t *testing.T) {
	const rdAtten, paHead = 60.0, 200.0

	// C = +Inf: the residual term vanishes identically.
	plain := ChooseAmplificationDB(math.Inf(1), rdAtten, paHead, true)
	resid := residualDecision(math.Inf(1), rdAtten, paHead, 60, true)
	if resid != plain {
		t.Errorf("C=+Inf: residual rule %+v differs from plain %+v", resid, plain)
	}

	// beta → 0 (signal far below thermal noise): converges to the plain rule.
	plain = ChooseAmplificationDB(110, rdAtten, paHead, true)
	resid = residualDecision(110, rdAtten, paHead, -300, true)
	if math.Abs(resid.AmpDB-plain.AmpDB) > 1e-9 || resid.Bound != plain.Bound {
		t.Errorf("beta->0: residual %.12f/%s, plain %.12f/%s",
			resid.AmpDB, resid.Bound, plain.AmpDB, plain.Bound)
	}

	// Never exceeds the plain rule, and is monotone in both arguments.
	prevRx := math.Inf(1)
	for _, rx := range []float64{-20, 0, 20, 40, 60, 80} {
		r := residualDecision(80, rdAtten, paHead, rx, true)
		p := ChooseAmplificationDB(80, rdAtten, paHead, true)
		if r.AmpDB > p.AmpDB+1e-12 {
			t.Errorf("rx=%v: residual %.6f exceeds plain %.6f", rx, r.AmpDB, p.AmpDB)
		}
		if r.AmpDB > prevRx+1e-12 {
			t.Errorf("rx=%v: back-off not monotone in received power", rx)
		}
		prevRx = r.AmpDB
	}
	prevC := 0.0
	for _, c := range []float64{20, 40, 60, 80, 100, 120} {
		r := residualDecision(c, rdAtten, paHead, 45, true)
		if r.AmpDB < prevC-1e-12 {
			t.Errorf("C=%v: amplification fell as cancellation improved", c)
		}
		prevC = r.AmpDB
	}

	// When the residual-aware noise bound binds, the Sec 3.5 condition holds
	// with equality: (1 + rx·A/(n0·C)) · A = a/margin in linear terms.
	const c, rx = 50.0, 45.0
	r := residualDecision(c, rdAtten, paHead, rx, true)
	if r.Bound != AmpBoundNoiseRule {
		t.Fatalf("expected noise_rule to bind, got %s", r.Bound)
	}
	a := math.Pow(10, r.AmpDB/10)
	beta := math.Pow(10, (rx-c)/10)
	lhs := (1 + beta*a) * a
	rhs := math.Pow(10, (rdAtten-cnf.NoiseMarginDB)/10)
	if math.Abs(lhs-rhs)/rhs > 1e-9 {
		t.Errorf("Sec 3.5 condition not tight: (1+βA)A = %.6g, want %.6g", lhs, rhs)
	}

	// noiseRule=false ignores the residual bound entirely.
	off := residualDecision(c, rdAtten, paHead, rx, false)
	want := ChooseAmplificationDB(c, rdAtten, paHead, false)
	if off != want {
		t.Errorf("noiseRule=false: residual %+v, plain %+v", off, want)
	}
}
