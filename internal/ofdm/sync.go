package ofdm

import (
	"math"
	"math/cmplx"

	"fastforward/internal/fft"
)

// DetectPacket locates a packet start in rx using Schmidl-Cox style
// autocorrelation over the STF's repetition period, then refines the
// estimate by cross-correlating against the known STF start. Returns the
// index of the first preamble sample and true, or (0, false) if no packet
// crosses the detection threshold.
func DetectPacket(rx []complex128, pr *Preamble) (int, bool) {
	period := pr.ShortPeriod
	window := len(pr.STF) / 2
	if len(rx) < len(pr.STF)+period {
		return 0, false
	}
	// Autocorrelation metric M(d) = |P(d)|²/R(d)² with running sums, plus
	// the window energy R(d). Pure-noise windows can fluke a high M, so
	// detection requires both M above threshold and meaningful energy.
	limit := len(rx) - window - period
	metric := make([]float64, limit+1)
	energy := make([]float64, limit+1)
	var p complex128
	var r float64
	var rmax float64
	for d := 0; d <= limit; d++ {
		if d == 0 {
			for i := 0; i < window; i++ {
				p += rx[i+period] * cmplx.Conj(rx[i])
				r += sq(rx[i+period])
			}
		} else {
			i := d - 1
			p -= rx[i+period] * cmplx.Conj(rx[i])
			r -= sq(rx[i+period])
			j := d + window - 1
			p += rx[j+period] * cmplx.Conj(rx[j])
			r += sq(rx[j+period])
		}
		energy[d] = r
		if r > rmax {
			rmax = r
		}
		if r > 1e-30 {
			metric[d] = cmplx.Abs(p) * cmplx.Abs(p) / (r * r)
		}
	}
	if rmax <= 0 {
		return 0, false
	}
	// Find the first sustained plateau: M > 0.5 with significant energy for
	// half an STF period's worth of consecutive positions. The analytic
	// plateau height is (S/(S+N))², so 0.5 admits packets down to ~5 dB
	// SNR; the 8-sample run and the energy gate keep noise from fluking it.
	const need = 8
	plateau := -1
	run := 0
	for d := 0; d <= limit; d++ {
		if metric[d] > 0.5 && energy[d] > 0.1*rmax {
			run++
			if run >= need {
				plateau = d - need + 1
				break
			}
		} else {
			run = 0
		}
	}
	if plateau < 0 {
		return 0, false
	}
	// The STF's 16-sample periodicity makes STF cross-correlation ambiguous,
	// and CFO decorrelates long coherent sums. So: (1) estimate a coarse CFO
	// from the autocorrelation phase in the middle of the plateau (CFO shows
	// up as exactly this phase and the estimate is timing-invariant), (2)
	// locally derotate, (3) locate the non-repetitive 160-sample LTF.
	mid := plateau + window/2
	if mid > limit {
		mid = limit
	}
	var pm complex128
	for i := mid; i < mid+window && i+period < len(rx); i++ {
		pm += rx[i+period] * cmplx.Conj(rx[i])
	}
	coarseCFO := cmplx.Phase(pm) / (2 * math.Pi * float64(period)) * pr.p.SampleRate

	// Search for the LTF start around the plateau. At threshold 0.5 the
	// plateau can trigger while the window only partially overlaps the STF
	// (up to ~2 periods early), so search generously on both sides.
	lo := plateau - period
	if lo < 0 {
		lo = 0
	}
	hi := plateau + len(pr.STF) + 4*period
	ltfRef := pr.LTF
	if hi+len(ltfRef) > len(rx) {
		hi = len(rx) - len(ltfRef)
	}
	if hi < lo {
		return 0, false
	}
	// Derotate the search region once.
	region := CorrectCFO(rx[lo:min(hi+len(ltfRef), len(rx))], coarseCFO, pr.p.SampleRate)
	ltfE := energyOf(ltfRef)
	bestC := -1.0
	ltfPos := -1
	for d := 0; d+len(ltfRef) <= len(region); d++ {
		var c complex128
		for i, v := range ltfRef {
			c += region[d+i] * cmplx.Conj(v)
		}
		e := energyOf(region[d : d+len(ltfRef)])
		if e <= 0 {
			continue
		}
		m := cmplx.Abs(c) / math.Sqrt(e*ltfE)
		if m > bestC {
			bestC = m
			ltfPos = lo + d
		}
	}
	if ltfPos < 0 || bestC < 0.4 {
		return 0, false
	}
	start := ltfPos - len(pr.STF)
	if start < 0 {
		start = 0
	}
	return start, true
}

func sq(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}

func energyOf(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// EstimateCFO estimates the carrier frequency offset in Hz from a received
// preamble that starts at rx[0]. It combines the coarse STF estimate
// (period-16 autocorrelation, wide range) with the fine LTF estimate
// (period-64 autocorrelation, 4x finer). Estimation range is ±SampleRate/32
// (±625 kHz at 20 Msps) which covers practical oscillator offsets.
func EstimateCFO(rx []complex128, pr *Preamble) float64 {
	p := pr.p
	period := pr.ShortPeriod
	// Coarse from STF: correlate segments one period apart, skipping the
	// first two periods (AGC settling in real hardware; keeps symmetry).
	// A capture shorter than the STF bounds the correlation to what's
	// there (zero samples yields phase 0 — no offset evidence).
	stfLen := len(pr.STF)
	if len(rx) < stfLen {
		stfLen = len(rx)
	}
	var acc complex128
	for i := 2 * period; i+period < stfLen; i++ {
		acc += rx[i+period] * cmplx.Conj(rx[i])
	}
	coarse := cmplx.Phase(acc) / (2 * math.Pi * float64(period)) * p.SampleRate

	// Fine from LTF: the two long symbols are NFFT apart.
	o1, o2 := pr.LTFSymbolOffsets()
	if o2+p.NFFT > len(rx) {
		return coarse
	}
	var acc2 complex128
	for i := 0; i < p.NFFT; i++ {
		acc2 += rx[o2+i] * cmplx.Conj(rx[o1+i])
	}
	fine := cmplx.Phase(acc2) / (2 * math.Pi * float64(p.NFFT)) * p.SampleRate
	// Fine has range ±SampleRate/(2·NFFT); unwrap it near the coarse value.
	rangeFine := p.SampleRate / float64(p.NFFT)
	n := math.Round((coarse - fine) / rangeFine)
	return fine + n*rangeFine
}

// CorrectCFO removes a CFO of cfoHz from rx (starting at phase 0 at rx[0]).
func CorrectCFO(rx []complex128, cfoHz float64, sampleRate float64) []complex128 {
	out := make([]complex128, len(rx))
	step := -2 * math.Pi * cfoHz / sampleRate
	ph := 0.0
	for i, v := range rx {
		out[i] = v * cmplx.Exp(complex(0, ph))
		ph += step
	}
	return out
}

// EstimateChannel computes the per-subcarrier channel estimate from the two
// LTF symbols of a synchronized, CFO-corrected preamble starting at rx[0].
// It returns H over all NFFT bins (zero where the LTF has no energy) and
// the post-FFT per-subcarrier noise variance, measured from the difference
// of the two (identical when noiseless) LTF symbols over the used
// subcarriers. A preamble cut short returns (nil, 0).
func EstimateChannel(rx []complex128, pr *Preamble) ([]complex128, float64) {
	p := pr.p
	o1, o2 := pr.LTFSymbolOffsets()
	if o2+p.NFFT > len(rx) {
		return nil, 0
	}
	b1 := fft.Forward(rx[o1 : o1+p.NFFT])
	b2 := fft.Forward(rx[o2 : o2+p.NFFT])
	h := make([]complex128, p.NFFT)
	for i := 0; i < p.NFFT; i++ {
		ref := pr.LTFBins[i]
		if ref == 0 {
			continue
		}
		h[i] = (b1[i] + b2[i]) / (2 * ref)
	}
	used := p.UsedCarriers()
	var acc float64
	for _, k := range used {
		acc += sq(b1[p.bin(k)] - b2[p.bin(k)])
	}
	// Var(B1-B2) = 2·Var(noise per bin).
	v := acc / float64(len(used)) / 2
	if v <= 0 {
		v = 1e-12
	}
	return h, v
}

// ChannelAt returns the channel estimate for logical subcarrier k from an
// NFFT-length estimate vector.
func ChannelAt(h []complex128, k, nfft int) complex128 {
	return h[binIndex(k, nfft)]
}

// Equalizer applies per-subcarrier zero-forcing equalization with
// pilot-based common-phase-error (CPE) tracking, the standard receiver
// structure for 802.11 OFDM.
type Equalizer struct {
	p *Params
	h []complex128 // channel estimate over NFFT bins
}

// NewEqualizer builds an equalizer from an NFFT-length channel estimate.
func NewEqualizer(p *Params, h []complex128) *Equalizer {
	return &Equalizer{p: p, h: h}
}

// Symbol equalizes one demodulated symbol's raw data and pilot subcarrier
// values. It estimates the residual common phase from the pilots and
// removes it, returning equalized data symbols.
func (e *Equalizer) Symbol(data, pilots []complex128) []complex128 {
	p := e.p
	// CPE estimate: average phase of pilot / (H·expected).
	var acc complex128
	for i, k := range p.PilotCarriers {
		hk := e.h[p.bin(k)]
		if hk == 0 {
			continue
		}
		acc += (pilots[i] / hk) * cmplx.Conj(p.PilotValues[i])
	}
	cpe := complex(1, 0)
	if acc != 0 {
		cpe = acc / complex(cmplx.Abs(acc), 0)
	}
	out := make([]complex128, len(data))
	for i, k := range p.DataCarriers {
		hk := e.h[p.bin(k)]
		if hk == 0 {
			out[i] = 0
			continue
		}
		out[i] = data[i] / hk / cpe
	}
	return out
}
