package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Mat2 is a 2×2 complex matrix held by value, row-major: [a00 a01 a10 a11].
// Its kernels are the general ones specialized to two rows — each repeats
// MulInto, AdjointInto, DetInto and InverseInto operation for operation,
// in the same order and with the same pivot rule, so a Mat2 result has the
// bits of the matching *Matrix result. They allocate nothing, which is what
// the CNF ascent's per-step products and projections need.
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

// Mul returns the product a·b. Like MulInto it accumulates each row from
// zero and skips the terms of a zero entry of a, so an Inf or NaN in b
// opposite a zero does not reach the result.
func (a Mat2) Mul(b Mat2) Mat2 {
	var d Mat2
	if v := a[0]; v != 0 {
		d[0] += v * b[0]
		d[1] += v * b[1]
	}
	if v := a[1]; v != 0 {
		d[0] += v * b[2]
		d[1] += v * b[3]
	}
	if v := a[2]; v != 0 {
		d[2] += v * b[0]
		d[3] += v * b[1]
	}
	if v := a[3]; v != 0 {
		d[2] += v * b[2]
		d[3] += v * b[3]
	}
	return d
}

// Adjoint returns the conjugate transpose mᴴ.
func (m Mat2) Adjoint() Mat2 {
	return Mat2{cmplx.Conj(m[0]), cmplx.Conj(m[2]), cmplx.Conj(m[1]), cmplx.Conj(m[3])}
}

// Det returns det m by DetInto's LU with partial pivoting.
func (m Mat2) Det() complex128 {
	det := complex(1, 0)
	if absExceeds(m[2], m[0]) {
		m[0], m[1], m[2], m[3] = m[2], m[3], m[0], m[1]
		det = -det
	}
	p := m[0]
	if p == 0 {
		return 0
	}
	det *= p
	d := newDivisor(real(p), imag(p))
	if f := d.quo(m[2], p); f != 0 {
		m[3] -= f * m[1]
	}
	if m[3] == 0 {
		return 0
	}
	return det * m[3]
}

// Inverse returns m⁻¹ by gaussJordan's elimination: for each column,
// pivot, normalize the pivot row, then eliminate the other row. It returns
// ErrSingular when a pivot's magnitude falls below 1e-300.
func (m Mat2) Inverse() (Mat2, error) {
	inv := Mat2{1, 0, 0, 1}
	if absExceeds(m[2], m[0]) {
		m[0], m[1], m[2], m[3] = m[2], m[3], m[0], m[1]
		inv[0], inv[1], inv[2], inv[3] = inv[2], inv[3], inv[0], inv[1]
	}
	p := m[0]
	if singularPivot(p) {
		return Mat2{}, ErrSingular
	}
	d := newDivisor(real(p), imag(p))
	m[1] = d.quo(m[1], p)
	inv[0] = d.quo(inv[0], p)
	inv[1] = d.quo(inv[1], p)
	if f := m[2]; f != 0 {
		m[3] -= f * m[1]
		inv[2] -= f * inv[0]
		inv[3] -= f * inv[1]
	}
	p = m[3]
	if singularPivot(p) {
		return Mat2{}, ErrSingular
	}
	d = newDivisor(real(p), imag(p))
	inv[2] = d.quo(inv[2], p)
	inv[3] = d.quo(inv[3], p)
	if f := m[1]; f != 0 {
		inv[0] -= f * inv[2]
		inv[1] -= f * inv[3]
	}
	return inv, nil
}

// ProjectUnitary returns the closest unitary matrix to m in Frobenius
// norm, computed via the polar decomposition using Newton's iteration
// X_{k+1} = (X_k + X_k^{-H})/2: at most 100 iterates, stopping once an
// iterate moves by less than 1e-12. It returns ErrSingular when an
// iterate is singular. The CNF optimizer uses it to keep the MIMO
// constructive filter F on the rotation-matrix manifold.
func (m Mat2) ProjectUnitary() (Mat2, error) {
	x := m
	for iter := 0; iter < 100; iter++ {
		inv, err := x.Adjoint().Inverse()
		if err != nil {
			return Mat2{}, err
		}
		// next = (x + x⁻ᴴ)/2 element by element; diff accumulates
		// ‖next − x‖² in storage order before x takes the step.
		var diff float64
		for i, v := range x {
			next := (v + inv[i]) * complex(0.5, 0)
			d := next - v
			diff += real(d)*real(d) + imag(d)*imag(d)
			x[i] = next
		}
		if math.Sqrt(diff) < 1e-12 {
			break
		}
	}
	return x, nil
}
