// Package allocfixture exercises the allocfree rules: per-block hot
// paths (Process/ProcessInto and friends) must not make slices outside a
// grow-once guard or call the allocating dsp helpers.
package allocfixture

import "dsp"

type stage struct {
	est []complex128
	ref []complex128
}

// Process is a hot path: bare makes and allocating helpers are findings.
func (s *stage) Process(block []complex128) []complex128 {
	tmp := make([]complex128, len(block)) // want `slice make in per-block hot path Process`
	copy(tmp, block)
	out := dsp.Add(tmp, s.ref) // want `allocating dsp.Add in per-block hot path Process`
	return dsp.ScaleC(out, 2)  // want `allocating dsp.ScaleC in per-block hot path Process`
}

// ProcessInto shows the legal forms: the grow-once guard and the
// InPlace/Into helper variants amortize to zero allocations.
func (s *stage) ProcessInto(dst, block []complex128) {
	if cap(s.est) < len(block) {
		s.est = make([]complex128, len(block)) // grow-once: allowed
	}
	est := s.est[:len(block)]
	copy(est, block)
	dsp.SubInPlace(est, s.ref)
	dsp.ScaleCInPlace(est, 2)
	copy(dst, est)
}

// PushPair is per-sample hot: even a small make is a finding.
func (s *stage) PushPair(tx, rx complex128) complex128 {
	pair := make([]complex128, 2) // want `slice make in per-block hot path PushPair`
	pair[0], pair[1] = tx, rx
	return rx - complex(dsp.Power(pair), 0)
}

// FilterBlock and CancelBlock are the block methods of a streaming
// filter: the planar scratch grows behind the guard, anything else is a
// finding.
func (s *stage) FilterBlock(block []complex128) bool {
	if cap(s.est) < 2*len(block) {
		s.est = make([]complex128, 2*len(block)) // grow-once: allowed
	}
	copy(s.est, block)
	return true
}

func (s *stage) CancelBlock(block, ref []complex128) bool {
	est := make([]complex128, len(ref)) // want `slice make in per-block hot path CancelBlock`
	copy(est, ref)
	dsp.SubInPlace(block, est)
	return true
}

// Process2 is outside the hot set: hot-path names match exactly.
func (s *stage) Process2(block []complex128) []complex128 { return block }

// Process with a documented intentional allocation.
func (s *stage) ProcessM(blocks [][]complex128) [][]complex128 {
	out := make([][]complex128, len(blocks)) // want `slice make in per-block hot path ProcessM`
	copy(out, blocks)
	kept := make([][]complex128, 0, len(blocks)) //fflint:allow allocfree characterization path, runs once per placement
	return append(kept, out...)
}

// setup is not a hot path: allocation is fine here.
func (s *stage) setup(n int) {
	s.ref = make([]complex128, n)
	s.est = dsp.Clone(s.ref)
}
