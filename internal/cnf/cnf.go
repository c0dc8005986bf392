// Package cnf implements FastForward's construct-and-forward filtering
// (Secs 3.2 and 3.4), the paper's headline contribution. Given the three
// channels around the relay — source→destination (hsd), source→relay (hsr)
// and relay→destination (hrd) — it computes the filter F and amplification
// A that make the relayed signal combine *coherently* with the direct
// signal at the destination:
//
//	SISO:  maximize |hsd + hrd·F·A·hsr|      (closed-form phase rotation)
//	MIMO:  maximize det(Hsd + Hrd·F·A·Hsr)   (projected gradient on the
//	                                          unitary manifold, Eq. 2)
//
// subject to A ≤ Amax, where Amax is bounded both by the achieved
// self-interference cancellation (feedback stability, Fig 7) and by the
// noise-amplification rule of Sec 3.5 (relay noise must land below the
// destination's noise floor).
//
// It also synthesizes the implementable form of the filter: a 4-tap
// digital pre-filter at 80 Msps (50 ns delay budget) cascaded with the
// 4-line/100 ps analog rotation filter of Fig 10, via alternating least
// squares — the sequential-convex-programming split of Sec 3.4.
//
// Synthesized filters report their realization quality — FitErrorDB and
// TapEnergy — which the evaluation harness records as the cnf.* run
// metrics (see OBSERVABILITY.md) alongside the coherence gain actually
// achieved at the destination.
package cnf

import (
	"math"
	"math/cmplx"

	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/rng"
)

// Margins used by the amplification rule.
const (
	// StabilityMarginDB keeps amplification safely below cancellation so
	// the TX→RX feedback loop stays stable (Fig 7).
	StabilityMarginDB = 3.0
	// NoiseMarginDB is the extra back-off of Sec 3.5 that puts amplified
	// relay noise below the destination noise floor.
	NoiseMarginDB = 3.0
)

// AmplificationLimitDB returns the maximum relay power amplification in dB
// given the achieved self-interference cancellation and the
// relay→destination path attenuation (positive dB). It implements
// A = min(C − 3, a − 3): the first term is the feedback-stability bound,
// the second the noise rule of Sec 3.5.
func AmplificationLimitDB(cancellationDB, rdAttenuationDB float64) float64 {
	a := cancellationDB - StabilityMarginDB
	b := rdAttenuationDB - NoiseMarginDB
	if b < a {
		a = b
	}
	if a < 0 {
		a = 0
	}
	return a
}

// DesiredSISO returns the ideal per-subcarrier constructive filter
// response Hc for a SISO relay: a pure rotation aligning the relayed path
// with the direct path, scaled by the amplitude gain corresponding to
// ampDB (power dB). Subcarriers where the relayed path is dead get zero.
func DesiredSISO(hsd, hsr, hrd []complex128, ampDB float64) []complex128 {
	if len(hsd) != len(hsr) || len(hsr) != len(hrd) {
		panic("cnf: channel vector length mismatch")
	}
	amp := dsp.AmplitudeFromDB(ampDB)
	hc := make([]complex128, len(hsd))
	for i := range hsd {
		relayed := hrd[i] * hsr[i]
		if relayed == 0 {
			continue
		}
		theta := cmplx.Phase(hsd[i]) - cmplx.Phase(relayed)
		if hsd[i] == 0 {
			// No direct path: any phase works; use zero rotation.
			theta = 0
		}
		hc[i] = cmplx.Rect(amp, theta)
	}
	return hc
}

// EffectiveSISO returns the per-subcarrier effective channel seen by the
// destination: hsd + hrd·Hc·hsr (Eq. 1's numerator).
func EffectiveSISO(hsd, hsr, hrd, hc []complex128) []complex128 {
	out := make([]complex128, len(hsd))
	for i := range hsd {
		out[i] = hsd[i] + hrd[i]*hc[i]*hsr[i]
	}
	return out
}

// LinkBudget describes one direction of a relayed link for SNR accounting.
type LinkBudget struct {
	// TxPowerMW is the source transmit power per stream (mW).
	TxPowerMW float64
	// NoiseFloorMW is the destination (and relay) noise power (mW).
	NoiseFloorMW float64
	// RelayNoiseMW is the relay receiver's own noise power (mW); usually
	// equal to NoiseFloorMW.
	RelayNoiseMW float64
}

// DestSNRdB evaluates Eq. 1 per subcarrier: the destination SNR including
// the relay-amplified noise term N_total = n_d + hrd·Hc·n_r.
func DestSNRdB(hsd, hsr, hrd, hc []complex128, b LinkBudget) []float64 {
	out := make([]float64, len(hsd))
	for i := range hsd {
		heff := hsd[i] + hrd[i]*hc[i]*hsr[i]
		sig := b.TxPowerMW * absSq(heff)
		noise := b.NoiseFloorMW + b.RelayNoiseMW*absSq(hrd[i]*hc[i])
		if noise <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = dsp.DB(sig / noise)
	}
	return out
}

// MeanSNRdB averages per-subcarrier SNRs in the power domain (the
// effective SNR a rate controller would use).
func MeanSNRdB(snrs []float64) float64 {
	if len(snrs) == 0 {
		return math.Inf(-1)
	}
	var acc float64
	for _, s := range snrs {
		acc += dsp.Linear(s)
	}
	return dsp.DB(acc / float64(len(snrs)))
}

func absSq(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}

// DesiredMIMO solves Eq. 2 per subcarrier: F maximizing
// |det(Hsd + Hrd·F·A·Hsr)| over unitary K×K matrices F, with A fixed at
// the amplitude corresponding to ampDB. It uses projected gradient ascent
// on the unitary manifold with multiple restarts (the "non-linear
// optimization technique" of Sec 3.2). The returned slice holds F·A (the
// combined filter, as the paper solves for) per subcarrier.
func DesiredMIMO(Hsd, Hsr, Hrd []*linalg.Matrix, ampDB float64, src *rng.Source) []*linalg.Matrix {
	if len(Hsd) != len(Hsr) || len(Hsr) != len(Hrd) {
		panic("cnf: channel matrix count mismatch")
	}
	amp := dsp.AmplitudeFromDB(ampDB)
	out := make([]*linalg.Matrix, len(Hsd))
	var warm *linalg.Matrix
	for i := range Hsd {
		// Warm-start from the previous subcarrier's solution: channels are
		// smooth in frequency, and keeping the optimizer on one solution
		// branch keeps F(f) smooth — which is what makes the filter
		// implementable by the short digital+analog cascade (Sec 3.4).
		out[i] = optimizeF(Hsd[i], Hsr[i], Hrd[i], amp, src, warm)
		warm = out[i].Scale(1 / amp)
	}
	return out
}

// optimizeF maximizes |det(Hsd + A·Hrd·F·Hsr)| over unitary F. A non-nil
// warm start is tried first and, when it converges to a competitive value,
// preferred (it keeps per-subcarrier solutions on one smooth branch).
func optimizeF(Hsd, Hsr, Hrd *linalg.Matrix, amp float64, src *rng.Source, warm *linalg.Matrix) *linalg.Matrix {
	k := Hrd.Cols // relay antenna count
	if Hsr.Rows != k {
		panic("cnf: relay antenna dimension mismatch")
	}
	a := newAscent(Hsd, Hsr, Hrd, amp, src)
	// Every start is drawn before any climb: the climbs' singular-channel
	// nudges draw from src too, and the order of draws is part of the
	// result.
	ns := 0
	if warm != nil {
		copy(a.starts[ns].Data, warm.Data)
		ns++
	}
	for i := 0; i < k; i++ {
		a.starts[ns].Set(i, i, 1)
	}
	ns++
	if src != nil {
		n := 4
		if warm != nil {
			n = 1 // cold restarts only as a safety net once warm
		}
		for r := 0; r < n; r++ {
			a.randomUnitary(&a.starts[ns])
			ns++
		}
	}
	var bestF *linalg.Matrix
	bestVal := math.Inf(-1)
	warmVal := math.Inf(-1)
	for si := range a.starts[:ns] {
		F := &a.starts[si]
		var held *linalg.Matrix
		if warm != nil && si == 0 {
			held = &a.held
		}
		val := a.climb(F, held)
		if held != nil {
			warmVal = val
		}
		if val > bestVal {
			bestVal = val
			bestF = F
		}
	}
	// Prefer the warm branch when it is within 1% of the best restart:
	// the smoothness benefit outweighs a marginal det difference. The
	// branch is what the warm climb holds (see climb), not where its
	// random nudges took it.
	if warm != nil && warmVal >= 0.99*bestVal {
		return a.held.Scale(amp)
	}
	return bestF.Scale(amp)
}

// ascent is optimizeF's workspace for one subcarrier: the channels, their
// adjoints (computed once), and every buffer the climbs reuse, carved from
// one allocation. A climb allocates only when it draws a random unitary.
type ascent struct {
	hsd, hsr, hrd *linalg.Matrix
	amp           complex128
	src           *rng.Source

	hrdH, hsrH linalg.Matrix // K×n and n×K adjoints of Hrd and Hsr
	// m holds the effective channel Hsd + A·Hrd·F·Hsr of the climb's
	// current F, mNext that of the candidate being evaluated; they swap
	// when a step is accepted.
	m, mNext    *linalg.Matrix
	mBuf        [2]linalg.Matrix
	minv, minvH linalg.Matrix // n×n
	work        linalg.Matrix // n×n elimination scratch for Det and Inverse
	rf          linalg.Matrix // n×K: Hrd·F
	hm          linalg.Matrix // K×n: Hrdᴴ·M⁻ᴴ
	grad, cand  linalg.Matrix // K×K
	proj, held  linalg.Matrix // K×K
	unitary     *linalg.UnitaryScratch
	starts      [6]linalg.Matrix // K×K: warm, identity, up to 4 random
}

func newAscent(Hsd, Hsr, Hrd *linalg.Matrix, amp float64, src *rng.Source) *ascent {
	n, k := Hsd.Rows, Hrd.Cols
	a := &ascent{hsd: Hsd, hsr: Hsr, hrd: Hrd, amp: complex(amp, 0), src: src,
		unitary: linalg.NewUnitaryScratch(k)}
	slab := make([]complex128, 5*n*n+4*n*k+(4+len(a.starts))*k*k)
	carve := func(m *linalg.Matrix, rows, cols int) {
		*m = linalg.Matrix{Rows: rows, Cols: cols, Data: slab[: rows*cols : rows*cols]}
		slab = slab[rows*cols:]
	}
	for _, m := range []*linalg.Matrix{&a.mBuf[0], &a.mBuf[1], &a.minv, &a.minvH, &a.work} {
		carve(m, n, n)
	}
	carve(&a.hrdH, k, n)
	carve(&a.hsrH, n, k)
	carve(&a.rf, n, k)
	carve(&a.hm, k, n)
	for _, m := range []*linalg.Matrix{&a.grad, &a.cand, &a.proj, &a.held} {
		carve(m, k, k)
	}
	for i := range a.starts {
		carve(&a.starts[i], k, k)
	}
	a.m, a.mNext = &a.mBuf[0], &a.mBuf[1]
	linalg.AdjointInto(&a.hrdH, Hrd)
	linalg.AdjointInto(&a.hsrH, Hsr)
	return a
}

// randomUnitary overwrites F with a random unitary drawn from src and
// returns it.
func (a *ascent) randomUnitary(F *linalg.Matrix) *linalg.Matrix {
	for i, row := range a.src.RandomUnitary(F.Rows) {
		copy(F.Data[i*F.Cols:(i+1)*F.Cols], row)
	}
	return F
}

// eval writes the effective channel Hsd + A·Hrd·F·Hsr into M and returns
// the objective |det M|.
func (a *ascent) eval(M, F *linalg.Matrix) float64 {
	linalg.MulInto(M, linalg.MulInto(&a.rf, a.hrd, F), a.hsr)
	for i, v := range M.Data {
		M.Data[i] = a.hsd.Data[i] + v*a.amp
	}
	return cmplx.Abs(linalg.DetInto(&a.work, M))
}

// climb runs the projected gradient ascent from F, which it updates in
// place, and returns the final objective. A non-nil held receives F as it
// stood at the first singular effective channel — where a climb that
// cannot re-draw F stops — or the final F when there was none.
func (a *ascent) climb(F, held *linalg.Matrix) float64 {
	val := a.eval(a.m, F)
	step := 0.5
	// The inverse and gradient depend only on F, so a rejected step (F
	// unchanged, step halved) reuses them.
	stale := true
	for iter := 0; iter < 200 && step > 1e-6; iter++ {
		if stale {
			if err := linalg.InverseInto(&a.minv, &a.work, a.m); err != nil {
				if held != nil {
					copy(held.Data, F.Data)
					held = nil
				}
				// Singular effective channel: nudge F randomly.
				if a.src != nil {
					val = a.eval(a.m, a.randomUnitary(F))
					continue
				}
				break
			}
			// Gradient of log|det M| w.r.t. conj(F): A·Hrdᴴ·M⁻ᴴ·Hsrᴴ.
			linalg.MulInto(&a.grad, linalg.MulInto(&a.hm, &a.hrdH, linalg.AdjointInto(&a.minvH, &a.minv)), &a.hsrH)
			for i, g := range a.grad.Data {
				a.grad.Data[i] = g * a.amp
			}
			stale = false
		}
		sc := complex(step, 0)
		for i, f := range F.Data {
			a.cand.Data[i] = f + a.grad.Data[i]*sc
		}
		if err := linalg.ProjectUnitaryInto(&a.proj, &a.cand, a.unitary); err != nil {
			step /= 2
			continue
		}
		if v := a.eval(a.mNext, &a.proj); v > val {
			copy(F.Data, a.proj.Data)
			a.m, a.mNext = a.mNext, a.m
			val = v
			stale = true
		} else {
			step /= 2
		}
	}
	if held != nil {
		copy(held.Data, F.Data)
	}
	return val
}

// EffectiveMIMO returns the per-subcarrier effective MIMO channel
// Hsd + Hrd·FA·Hsr for a filter slice produced by DesiredMIMO.
func EffectiveMIMO(Hsd, Hsr, Hrd, FA []*linalg.Matrix) []*linalg.Matrix {
	out := make([]*linalg.Matrix, len(Hsd))
	for i := range Hsd {
		out[i] = Hsd[i].Add(Hrd[i].Mul(FA[i]).Mul(Hsr[i]))
	}
	return out
}
