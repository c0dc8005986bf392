package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Mat2 is a 2×2 complex matrix held by value, row-major: [a00 a01 a10 a11].
// It is the package's one determinant and inverse; the CNF ascent's
// per-step products and projections and the relay-noise whitening use it,
// and its kernels allocate nothing. Mul and Adjoint repeat Matrix.Mul and
// Matrix.Adjoint operation for operation. Det, Inverse and ProjectUnitary
// return the bits of the textbook kernels in reference_test.go — refDet's
// LU and refInverse's Gauss-Jordan elimination, both with partial
// pivoting, and refProjectUnitary's polar Newton iteration — which
// FuzzKernelsMatchReference holds them to.
//
// Mul, Det, Inverse and ProjectUnitary compute in four complex128 locals:
// each unpacks its operands on entry and packs its result on return. gc
// keeps any array of more than one element in memory, so indexing a Mat2
// inside a kernel is a load or a store per access, where a local stays in
// a register. Where a value lives does not change its bits as long as each
// kernel performs the same operations in the same order: on amd64 gc fuses
// no multiply and add but an explicit math.FMA.
type Mat2 [4]complex128

// ToMat2 copies the 2×2 matrix m into a Mat2; it panics on any other shape.
func ToMat2(m *Matrix) Mat2 {
	if m.Rows != 2 || m.Cols != 2 {
		panic(fmt.Sprintf("linalg: ToMat2 of a %dx%d matrix", m.Rows, m.Cols))
	}
	return Mat2(m.Data)
}

// Matrix returns m as a new 2×2 *Matrix.
func (m Mat2) Matrix() *Matrix {
	return &Matrix{Rows: 2, Cols: 2, Data: []complex128{m[0], m[1], m[2], m[3]}}
}

// Mul returns the product a·b. Like Matrix.Mul it accumulates each row from
// zero and skips the terms of a zero entry of a, so an Inf or NaN in b
// opposite a zero does not reach the result.
func (a Mat2) Mul(b Mat2) Mat2 {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	var d0, d1, d2, d3 complex128
	if a0 != 0 {
		d0 += a0 * b0
		d1 += a0 * b1
	}
	if a1 != 0 {
		d0 += a1 * b2
		d1 += a1 * b3
	}
	if a2 != 0 {
		d2 += a2 * b0
		d3 += a2 * b1
	}
	if a3 != 0 {
		d2 += a3 * b2
		d3 += a3 * b3
	}
	return Mat2{d0, d1, d2, d3}
}

// Adjoint returns the conjugate transpose mᴴ.
func (m Mat2) Adjoint() Mat2 {
	return Mat2{cmplx.Conj(m[0]), cmplx.Conj(m[2]), cmplx.Conj(m[1]), cmplx.Conj(m[3])}
}

// Det returns det m by LU with partial pivoting.
func (m Mat2) Det() complex128 {
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	det := complex(1, 0)
	if absExceeds(m2, m0) {
		m0, m1, m2, m3 = m2, m3, m0, m1
		det = -det
	}
	p := m0
	if p == 0 {
		return 0
	}
	det *= p
	d := newDivisor(real(p), imag(p))
	if f := d.quo(m2, p); f != 0 {
		m3 -= f * m1
	}
	if m3 == 0 {
		return 0
	}
	return det * m3
}

// Inverse returns m⁻¹ by gaussJordan's elimination: for each column,
// pivot, normalize the pivot row, then eliminate the other row. It returns
// ErrSingular when a pivot's magnitude falls below 1e-300.
func (m Mat2) Inverse() (Mat2, error) {
	v0, v1, v2, v3, ok := inverse2(m[0], m[1], m[2], m[3])
	if !ok {
		return Mat2{}, ErrSingular
	}
	return Mat2{v0, v1, v2, v3}, nil
}

// inverse2 is Inverse's body on the entries of m: it returns those of m⁻¹,
// or ok false for a singular pivot.
func inverse2(m0, m1, m2, m3 complex128) (v0, v1, v2, v3 complex128, ok bool) {
	v0, v3 = 1, 1
	if absExceeds(m2, m0) {
		m0, m1, m2, m3 = m2, m3, m0, m1
		v0, v1, v2, v3 = v2, v3, v0, v1
	}
	p := m0
	if singularPivot(p) {
		return 0, 0, 0, 0, false
	}
	d := newDivisor(real(p), imag(p))
	m1 = d.quo(m1, p)
	v0 = d.quo(v0, p)
	v1 = d.quo(v1, p)
	if f := m2; f != 0 {
		m3 -= f * m1
		v2 -= f * v0
		v3 -= f * v1
	}
	p = m3
	if singularPivot(p) {
		return 0, 0, 0, 0, false
	}
	d = newDivisor(real(p), imag(p))
	v2 = d.quo(v2, p)
	v3 = d.quo(v3, p)
	if f := m1; f != 0 {
		v0 -= f * v2
		v1 -= f * v3
	}
	return v0, v1, v2, v3, true
}

// ProjectUnitary returns the closest unitary matrix to m in Frobenius
// norm, computed via the polar decomposition using Newton's iteration
// X_{k+1} = (X_k + X_k^{-H})/2: at most 100 iterates, stopping once an
// iterate moves by less than 1e-12. It returns ErrSingular when an
// iterate is singular. The CNF optimizer uses it to keep the MIMO
// constructive filter F on the rotation-matrix manifold.
func (m Mat2) ProjectUnitary() (Mat2, error) {
	x0, x1, x2, x3 := m[0], m[1], m[2], m[3]
	for iter := 0; iter < 100; iter++ {
		v0, v1, v2, v3, ok := inverse2(cmplx.Conj(x0), cmplx.Conj(x2), cmplx.Conj(x1), cmplx.Conj(x3))
		if !ok {
			return Mat2{}, ErrSingular
		}
		// x takes the step (x + x⁻ᴴ)/2 entry by entry; diff accumulates
		// ‖step‖² in storage order.
		var diff float64
		x0, diff = newtonStep(x0, v0, diff)
		x1, diff = newtonStep(x1, v1, diff)
		x2, diff = newtonStep(x2, v2, diff)
		x3, diff = newtonStep(x3, v3, diff)
		if math.Sqrt(diff) < 1e-12 {
			break
		}
	}
	return Mat2{x0, x1, x2, x3}, nil
}

// newtonStep returns next = (x + v)/2 and diff plus |next − x|².
func newtonStep(x, v complex128, diff float64) (complex128, float64) {
	next := (x + v) * complex(0.5, 0)
	d := next - x
	return next, diff + (real(d)*real(d) + imag(d)*imag(d))
}
