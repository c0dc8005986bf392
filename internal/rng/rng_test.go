package rng

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.ComplexGaussian(1) != b.ComplexGaussian(1) {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(1)
	f := a.Fork()
	// Fork is deterministic given the parent's state.
	b := New(1)
	g := b.Fork()
	for i := 0; i < 10; i++ {
		if f.Float64() != g.Float64() {
			t.Fatal("forks of identical parents must match")
		}
	}
}

func TestComplexGaussianPower(t *testing.T) {
	s := New(7)
	const n = 200000
	var p float64
	for i := 0; i < n; i++ {
		v := s.ComplexGaussian(2.5)
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= n
	if math.Abs(p-2.5) > 0.05 {
		t.Errorf("average power %v, want 2.5", p)
	}
}

func TestNoiseVector(t *testing.T) {
	s := New(3)
	v := s.NoiseVector(100000, 0.5)
	var p float64
	for _, x := range v {
		p += real(x)*real(x) + imag(x)*imag(x)
	}
	p /= float64(len(v))
	if math.Abs(p-0.5) > 0.02 {
		t.Errorf("noise power %v, want 0.5", p)
	}
}

func TestUniformPhaseUnitMagnitude(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if math.Abs(cmplx.Abs(s.UniformPhase())-1) > 1e-12 {
			t.Fatal("UniformPhase must have unit magnitude")
		}
	}
}

func TestRandomUnitary(t *testing.T) {
	s := New(9)
	for _, n := range []int{1, 2, 4} {
		u := s.RandomUnitary(n)
		// U·U* = I
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var dot complex128
				for k := 0; k < n; k++ {
					dot += u[i][k] * cmplx.Conj(u[j][k])
				}
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(dot-want) > 1e-10 {
					t.Fatalf("n=%d: row dot (%d,%d) = %v, want %v", n, i, j, dot, want)
				}
			}
		}
	}
}
