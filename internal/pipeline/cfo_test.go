package pipeline

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"fastforward/internal/rng"
)

// rotatorTol bounds the CFO rotator's error against a per-sample
// math.Sincos oracle of the stage's own accumulated phase, relative to the
// sample magnitude. It is the measured worst case below — 9.4e-15 at
// 1.5 kHz CFO, 3.9e-14 at 2 MHz over four resync windows and 4.0e-14 over
// 2^20 samples, on amd64 — with 25% headroom: the recurrence's
// few-ulp-per-step drift across one rotResync window, plus the rounding of
// the oracle's own phase, and nothing that grows with stream length.
const rotatorTol = 5e-14

// rotateOracle drives st one sample at a time, checking each output
// against x·exp(j·φ) with φ the stage's phase before the sample, and
// returns the worst relative error.
func rotateOracle(t *testing.T, st *CFOStage, sig []complex128) float64 {
	t.Helper()
	var worst float64
	var buf [1]complex128
	for _, x := range sig {
		sin, cos := math.Sincos(st.phase + float64(st.cnt)*st.step)
		want := x * complex(cos, sin)
		buf[0] = x
		st.Process(buf[:])
		if d := cmplx.Abs(buf[0]-want) / cmplx.Abs(x); d > worst {
			worst = d
		}
	}
	return worst
}

// TestCFORotatorMatchesSincosOracle holds the phasor recurrence to
// rotatorTol of the exact rotation by the stage's own phase, at the
// session chain's 1.5 kHz CFO and at 2 MHz, where the per-sample step
// (0.2π) makes the recurrence's drift largest.
func TestCFORotatorMatchesSincosOracle(t *testing.T) {
	for _, cfoHz := range []float64{1500, -1500, 2e6, -2e6} {
		st := NewCFOStage("cfo", 2*math.Pi*cfoHz/20e6)
		sig := rng.New(31).NoiseVector(4*rotResync+17, 1)
		if worst := rotateOracle(t, st, sig); worst > rotatorTol {
			t.Errorf("%g Hz: rotator error %g against the Sincos oracle (tolerance %g)", cfoHz, worst, rotatorTol)
		}
	}
}

// TestCFOPhaseBoundedOverLongStream streams 2^20 samples at 2 MHz CFO —
// 10^5 turns of phase — and checks that the accumulator stays wrapped into
// [−π, π], that the error against the oracle stays at the short-stream
// tolerance, and that the remove and restore rotators stay exact
// negations of each other.
func TestCFOPhaseBoundedOverLongStream(t *testing.T) {
	const n = 1 << 20
	step := 2 * math.Pi * 2e6 / 20e6
	restore := NewCFOStage("cfo_restore", step)
	remove := NewCFOStage("cfo_remove", -step)
	var worst float64
	var up, down [1]complex128
	for i := 0; i < n; i++ {
		if math.Abs(restore.phase) > math.Pi {
			t.Fatalf("sample %d: phase %v escaped [-π, π]", i, restore.phase)
		}
		if remove.phase != -restore.phase || remove.cnt != restore.cnt {
			t.Fatalf("sample %d: remove phase %v is not the negation of restore phase %v", i, remove.phase, restore.phase)
		}
		p := restore.phase + float64(restore.cnt)*step
		up[0], down[0] = 1, 1
		restore.Process(up[:])
		remove.Process(down[:])
		if down[0] != cmplx.Conj(up[0]) {
			t.Fatalf("sample %d: remove rotator %v is not the conjugate of restore %v", i, down[0], up[0])
		}
		sin, cos := math.Sincos(p)
		if d := cmplx.Abs(up[0] - complex(cos, sin)); d > worst {
			worst = d
		}
	}
	if worst > rotatorTol {
		t.Fatalf("rotator error %g after %d samples (short-stream tolerance %g)", worst, n, rotatorTol)
	}
}

// TestCFOStageRoundTrip checks the rotator against the closed form and
// remove∘restore against the identity. Within one resync window the
// stage's phase is exactly n·step, so the closed form is the Sincos
// oracle and rotatorTol bounds it. Each rotation is within rotatorTol of
// an exact unit rotation, so the round trip is within 2·rotatorTol of
// the input.
func TestCFOStageRoundTrip(t *testing.T) {
	sig := rng.New(29).NoiseVector(rotResync, 1)
	step := 0.037
	remove := NewCFOStage("rm", -step)
	restore := NewCFOStage("rs", step)
	out := append([]complex128(nil), sig...)
	remove.Process(out)
	restore.Process(out)
	for i := range sig {
		if d := cmplx.Abs(out[i]-sig[i]) / cmplx.Abs(sig[i]); d > 2*rotatorTol {
			t.Fatalf("round trip error %g at %d (tolerance %g)", d, i, 2*rotatorTol)
		}
	}
	single := NewCFOStage("one", step)
	out2 := append([]complex128(nil), sig...)
	single.Process(out2)
	for i := range sig {
		want := sig[i] * cmplx.Exp(complex(0, float64(i)*step))
		if d := cmplx.Abs(out2[i]-want) / cmplx.Abs(sig[i]); d > rotatorTol {
			t.Fatalf("rotation drifts from closed form by %g at %d (tolerance %g)", d, i, rotatorTol)
		}
	}
}

// BenchmarkCFOStage times one rotator over the served chain's block
// sizes at its 1.5 kHz CFO: 4096 samples, which rotates interleaved
// groups of whole resync windows, and 64, which runs the one-sample loop.
func BenchmarkCFOStage(b *testing.B) {
	for _, n := range []int{4096, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			st := NewCFOStage("cfo", 2*math.Pi*SessionCFOHz/SessionSampleRateHz)
			block := rng.New(37).NoiseVector(n, 1)
			b.SetBytes(int64(n) * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Process(block)
			}
		})
	}
}
