package linalg

import (
	"errors"
	"testing"
)

// TestInPlaceKernelsAllocateNothing pins the point of the Into forms and
// Mat2: with caller-owned solution and scratch, or 2×2 values, a loop over
// them (the tap fits, the CNF optimizer's ascent) never touches the heap,
// singular inputs included.
func TestInPlaceKernelsAllocateNothing(t *testing.T) {
	tall, rhs, x := randMatrix(5, 3, 5), make([]complex128, 5), make([]complex128, 3)
	ls := NewLSScratch(3)
	realA := [][]float64{{1, 0.5, 0}, {0.2, 1, 0.3}, {0, 0.4, 1}, {0.5, 0.5, 0.5}}
	realB, g := []float64{1, -0.5, 0.7, 0.2}, make([]float64, 3)
	nn := NewNNLSScratch(4, 3)
	for name, f := range map[string]func(){
		"LeastSquaresInto": func() { _ = LeastSquaresInto(x, tall, rhs, 1e-9, ls) },
		"NNLSInto":         func() { NNLSInto(g, realA, realB, 1e-9, nn) },
		"Mat2.Inverse/singular": func() {
			if _, err := (Mat2{1, 2, 2, 4}).Inverse(); !errors.Is(err, ErrSingular) {
				t.Fatalf("Mat2.Inverse(singular) = %v, want ErrSingular", err)
			}
		},
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestInPlaceKernelsRejectWrongSize: a destination or scratch of the wrong
// shape is a programming error and panics rather than writing out of shape.
func TestInPlaceKernelsRejectWrongSize(t *testing.T) {
	rect := randMatrix(2, 3, 4)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"LeastSquaresInto/x", func() { _ = LeastSquaresInto(make([]complex128, 2), rect, make([]complex128, 2), 0, NewLSScratch(3)) }},
		{"LeastSquaresInto/scratch", func() { _ = LeastSquaresInto(make([]complex128, 3), rect, make([]complex128, 2), 0, NewLSScratch(2)) }},
		{"NNLSInto/x", func() { NNLSInto(make([]float64, 1), [][]float64{{1, 2}}, []float64{1}, 0, NewNNLSScratch(1, 2)) }},
		{"NNLSInto/scratch", func() {
			NNLSInto(make([]float64, 2), [][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, 0, NewNNLSScratch(1, 2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic on a wrong-size argument")
				}
			}()
			tc.f()
		})
	}
}
