package pipeline

import (
	"fastforward/internal/dsp"
)

// minSoATaps is the filter length below which the planar SoA path is not
// armed: with a handful of taps the per-block conversion passes cost more
// than the branch-free MAC saves.
const minSoATaps = 4

// minSoABlock gates the SoA path per block: shorter blocks (and the
// relay's one-sample feedback drive) stay on the direct form, whose
// per-sample cost is already low at those sizes.
const minSoABlock = 32

// soaFFTCrossoverTaps arbitrates between the planar block path and an
// armed overlap-save path: below this filter length the planar MAC wins,
// at or above it overlap-save does. The SoA kernel's per-sample cost
// grows linearly with the tap count (~0.5 ns/tap on baseline SSE2
// hardware) while overlap-save stays roughly flat (~35-45 ns/sample, its
// FFT size tracking the filter length), so the measured crossover sits
// near 80 taps. The constant is a coarse host-calibrated estimate; a miss
// costs time (bit-exactness is already given up by arming EnableFFT).
const soaFFTCrossoverTaps = 80

// soaFIR is the planar (structure-of-arrays) engine behind FIRStage's
// block path. Like ovSave it owns no streaming state: each filter call
// reads the direct-form delay line for the T−1 samples of input history
// and writes the new tail back, so direct, FFT, and SoA processing
// interleave freely and a Reset of the FIR resets all paths.
//
// Numerics: the planar MAC accumulates in the direct form's exact order
// (ascending tap index), so it is bit-exact with FIR.Push on targets
// without implicit FMA contraction — amd64 included — which the tests
// and FuzzSoAMatchesPush pin sample for sample.
type soaFIR struct {
	hr, hi []float64
	// xr/xi hold history + block, yr/yi the output, all planar. They grow
	// once and are reused (zero allocations at steady state).
	xr, xi []float64
	yr, yi []float64
}

func newSoAFIR(taps []complex128) *soaFIR {
	o := &soaFIR{
		hr: make([]float64, len(taps)),
		hi: make([]float64, len(taps)),
	}
	dsp.Deinterleave(o.hr, o.hi, taps)
	return o
}

// filter runs the planar MAC over block in place, keeping f's delay line
// consistent for the next call on any path.
func (o *soaFIR) filter(f *dsp.FIR, block []complex128) {
	yr, yi := o.filterPlanar(f, block)
	dsp.Interleave(block, yr, yi)
}

// filterPlanar is filter without the egress conversion: it returns the
// planar output views (valid until the next call), which lets the cancel
// stage subtract straight from them. block is only read.
func (o *soaFIR) filterPlanar(f *dsp.FIR, block []complex128) (yr, yi []float64) {
	t := len(o.hr)
	l := len(block)
	need := t - 1 + l
	if cap(o.xr) < need {
		o.xr = make([]float64, need)
		o.xi = make([]float64, need)
	}
	if cap(o.yr) < l {
		o.yr = make([]float64, l)
		o.yi = make([]float64, l)
	}
	xr, xi := o.xr[:need], o.xi[:need]
	f.RecentSoA(xr[:t-1], xi[:t-1])
	dsp.Deinterleave(xr[t-1:], xi[t-1:], block)
	yr, yi = o.yr[:l], o.yi[:l]
	dsp.FIRFilterSoA(yr, yi, xr, xi, o.hr, o.hi)
	f.LoadRecentSoA(xr[need-t:], xi[need-t:])
	return yr, yi
}
