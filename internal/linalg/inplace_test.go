package linalg

import (
	"errors"
	"testing"
)

// TestInPlaceKernelsAllocateNothing pins the point of the Into forms: with
// caller-owned destination and scratch, a loop over them (the CNF
// optimizer's ascent) never touches the heap, singular inputs included.
func TestInPlaceKernelsAllocateNothing(t *testing.T) {
	a, b := randMatrix(3, 3, 1), randMatrix(3, 3, 2)
	singular := FromRows([][]complex128{{1, 2, 3}, {2, 4, 6}, {0, 1, 1}})
	dst, work := NewMatrix(3, 3), NewMatrix(3, 3)
	s := NewUnitaryScratch(3)
	tall, rhs, x := randMatrix(5, 3, 5), make([]complex128, 5), make([]complex128, 3)
	ls := NewLSScratch(3)
	realA := [][]float64{{1, 0.5, 0}, {0.2, 1, 0.3}, {0, 0.4, 1}, {0.5, 0.5, 0.5}}
	realB, g := []float64{1, -0.5, 0.7, 0.2}, make([]float64, 3)
	nn := NewNNLSScratch(4, 3)
	for name, f := range map[string]func(){
		"MulInto":     func() { MulInto(dst, a, b) },
		"AdjointInto": func() { AdjointInto(dst, a) },
		"DetInto":     func() { DetInto(work, a) },
		"InverseInto": func() { _ = InverseInto(dst, work, a) },
		"InverseInto/singular": func() {
			if err := InverseInto(dst, work, singular); !errors.Is(err, ErrSingular) {
				t.Fatalf("InverseInto(singular) = %v, want ErrSingular", err)
			}
		},
		"ProjectUnitaryInto": func() { _ = ProjectUnitaryInto(dst, a, s) },
		"LeastSquaresInto":   func() { _ = LeastSquaresInto(x, tall, rhs, 1e-9, ls) },
		"NNLSInto":           func() { NNLSInto(g, realA, realB, 1e-9, nn) },
	} {
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestInPlaceKernelsRejectWrongSize: a destination or scratch of the wrong
// shape is a programming error and panics rather than writing out of shape.
func TestInPlaceKernelsRejectWrongSize(t *testing.T) {
	sq, rect := randMatrix(2, 2, 3), randMatrix(2, 3, 4)
	short := &Matrix{Rows: 2, Cols: 2, Data: make([]complex128, 3)}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"MulInto/rows", func() { MulInto(NewMatrix(3, 3), sq, rect) }},
		{"MulInto/cols", func() { MulInto(NewMatrix(2, 2), sq, rect) }},
		{"MulInto/operands", func() { MulInto(NewMatrix(2, 2), rect, sq) }},
		{"MulInto/storage", func() { MulInto(short, sq, sq) }},
		{"AdjointInto", func() { AdjointInto(NewMatrix(2, 3), rect) }},
		{"DetInto/work", func() { DetInto(NewMatrix(3, 3), sq) }},
		{"DetInto/nonsquare", func() { DetInto(NewMatrix(2, 3), rect) }},
		{"InverseInto/dst", func() { _ = InverseInto(NewMatrix(3, 3), NewMatrix(2, 2), sq) }},
		{"InverseInto/work", func() { _ = InverseInto(NewMatrix(2, 2), short, sq) }},
		{"InverseInto/nonsquare", func() { _ = InverseInto(NewMatrix(2, 3), NewMatrix(2, 3), rect) }},
		{"ProjectUnitaryInto/dst", func() { _ = ProjectUnitaryInto(NewMatrix(3, 3), sq, NewUnitaryScratch(2)) }},
		{"ProjectUnitaryInto/scratch", func() { _ = ProjectUnitaryInto(NewMatrix(2, 2), sq, NewUnitaryScratch(3)) }},
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
