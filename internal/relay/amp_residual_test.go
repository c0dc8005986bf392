package relay

import (
	"math"
	"testing"

	"fastforward/internal/cnf"
)

// TestResidualBoundUnitDiscipline pins the dB/linear unit discipline of
// the self-interference-aware noise bound. Every row states its inputs
// in dB (power dB throughout: x dB ⇔ 10^(x/10) linear, never the
// amplitude 20·log10 convention); the test recomputes the bound
// independently in the linear domain and requires the two to agree, and
// checks the vanishing-residual limit: as the residual weight β → 0 the
// quadratic-root bound must collapse to the plain a − 3 dB rule, both in
// dB and after conversion to linear power ratios.
func TestResidualBoundUnitDiscipline(t *testing.T) {
	const paHead = 500.0 // never binding: isolates the noise rule

	cases := []struct {
		name            string
		cancellationDB  float64
		rdAttenDB       float64
		rxOverNoiseDB   float64
		wantPlain       bool    // residual bound must equal plain a − 3 dB
		plainTolDB      float64 // tolerance for the wantPlain comparison
		wantBound       AmpBound
		wantBackoffOver float64 // minimum back-off below plain rule, dB
	}{
		{
			name:           "infinite cancellation is the exact plain rule",
			cancellationDB: math.Inf(1), rdAttenDB: 60, rxOverNoiseDB: 60,
			wantPlain: true, plainTolDB: 0, wantBound: AmpBoundNoiseRule,
		},
		{
			name:           "large finite C approximates the plain rule",
			cancellationDB: 200, rdAttenDB: 60, rxOverNoiseDB: 40,
			// β = 10^((40−200)/10) = 1e-16; first-order back-off is
			// 10·log10(1+β·target) ≈ 4.3e-4·β·target dB — far below 1e-6.
			wantPlain: true, plainTolDB: 1e-6, wantBound: AmpBoundNoiseRule,
		},
		{
			name:           "signal far below noise floor approximates the plain rule",
			cancellationDB: 90, rdAttenDB: 60, rxOverNoiseDB: -120,
			wantPlain: true, plainTolDB: 1e-6, wantBound: AmpBoundNoiseRule,
		},
		{
			name:           "degraded cancellation backs off below the plain rule",
			cancellationDB: 55, rdAttenDB: 60, rxOverNoiseDB: 50,
			wantPlain: false, wantBound: AmpBoundNoiseRule, wantBackoffOver: 1,
		},
		{
			name:           "strong residual halves the bound in dB terms",
			cancellationDB: 40, rdAttenDB: 60, rxOverNoiseDB: 55,
			// β·target ≫ 1, so A ≈ √(target/β): the dB bound tends to
			// (a − 3 − (rx − C))/2, a full unit-convention witness — an
			// amplitude-dB (20·log10) slip anywhere doubles or halves it.
			wantPlain: false, wantBound: AmpBoundNoiseRule, wantBackoffOver: 10,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := residualDecision(tc.cancellationDB, tc.rdAttenDB, paHead, tc.rxOverNoiseDB, true)
			if got.Bound != tc.wantBound {
				t.Fatalf("bound = %s, want %s", got.Bound, tc.wantBound)
			}
			plain := tc.rdAttenDB - cnf.NoiseMarginDB

			// Independent linear-domain recomputation: solve
			// β·A² + A − target = 0 by bisection on the monotone LHS,
			// sharing no algebra with the closed form under test.
			aLin := math.Pow(10, got.AmpDB/10)
			if !math.IsInf(tc.cancellationDB, 1) {
				beta := math.Pow(10, (tc.rxOverNoiseDB-tc.cancellationDB)/10)
				target := math.Pow(10, plain/10)
				lo, hi := 0.0, target
				for i := 0; i < 200; i++ {
					mid := (lo + hi) / 2
					if beta*mid*mid+mid < target {
						lo = mid
					} else {
						hi = mid
					}
				}
				ref := (lo + hi) / 2
				if math.Abs(aLin-ref)/ref > 1e-9 {
					t.Errorf("linear root mismatch: closed form %.9g, bisection %.9g", aLin, ref)
				}
			}

			if tc.wantPlain {
				if diff := math.Abs(got.AmpDB - plain); diff > tc.plainTolDB {
					t.Errorf("AmpDB = %.12f dB, want plain rule %.12f dB (|diff| %.3g > %.3g)",
						got.AmpDB, plain, diff, tc.plainTolDB)
				}
				// Same limit stated in linear power ratios: A → a/2
				// (the −3 dB margin is a factor of 10^0.3, not 2 exactly,
				// so compare against the margin constant, not a literal).
				wantLin := math.Pow(10, tc.rdAttenDB/10) / math.Pow(10, cnf.NoiseMarginDB/10)
				linTol := wantLin * (math.Pow(10, tc.plainTolDB/10) - 1 + 1e-12)
				if diff := math.Abs(aLin - wantLin); diff > linTol {
					t.Errorf("linear amplification %.9g, want %.9g (|diff| %.3g > %.3g)",
						aLin, wantLin, diff, linTol)
				}
			} else {
				if backoff := plain - got.AmpDB; backoff < tc.wantBackoffOver {
					t.Errorf("back-off below plain rule = %.3f dB, want > %.3f dB",
						backoff, tc.wantBackoffOver)
				}
			}
		})
	}
}

// residualDecision is the single-session residual rule (no external load)
// in the positional form the table tests read best in.
func residualDecision(cancellationDB, rdAttenDB, paHeadroomDB, rxOverNoiseDB float64, noiseRule bool) AmpDecision {
	return ChooseAmplificationResidualDB(SessionBudget{
		CancellationDB: cancellationDB, RDAttenDB: rdAttenDB,
		PAHeadroomDB: paHeadroomDB, RxOverNoiseDB: rxOverNoiseDB,
	}, 0, noiseRule)
}
