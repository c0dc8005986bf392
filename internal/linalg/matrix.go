// Package linalg implements the dense complex-valued linear algebra the
// MIMO parts of FastForward need: determinants (the CNF objective is
// det(Hsd + Hrd·F·A·Hsr)), singular values (MIMO rank and per-stream SNR),
// inverses and least-squares solves (cancellation filter estimation).
//
// Matrices are small (antenna counts and filter tap counts), so the
// implementations favour clarity and numerical robustness over asymptotic
// speed: LU with partial pivoting, Householder QR, and one-sided Jacobi SVD.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense complex matrix with row-major storage.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("linalg: non-positive dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices (all equal length, copied).
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty rows")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	setIdentity(m)
	return m
}

// setIdentity overwrites the square matrix m with the identity.
func setIdentity(m *Matrix) {
	clear(m.Data)
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%8.4f%+8.4fi ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Add returns m + o.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.checkSame(o)
	r := m.Clone()
	for i := range r.Data {
		r.Data[i] += o.Data[i]
	}
	return r
}

// Sub returns m - o.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.checkSame(o)
	r := m.Clone()
	for i := range r.Data {
		r.Data[i] -= o.Data[i]
	}
	return r
}

// ScaleC returns m scaled by a complex scalar.
func (m *Matrix) ScaleC(s complex128) *Matrix {
	r := m.Clone()
	for i := range r.Data {
		r.Data[i] *= s
	}
	return r
}

// Scale returns m scaled by a real scalar.
func (m *Matrix) Scale(s float64) *Matrix { return m.ScaleC(complex(s, 0)) }

// Mul returns the matrix product m·o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return MulInto(NewMatrix(m.Rows, o.Cols), m, o)
}

// MulInto writes the product a·b into dst (a.Rows×b.Cols, aliasing
// neither operand) and returns dst. It allocates nothing.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.checkShape(a.Rows, b.Cols)
	clear(dst.Data)
	for i := 0; i < a.Rows; i++ {
		di := dst.row(i)
		for k, v := range a.row(i) {
			if v == 0 {
				continue
			}
			bk := b.row(k)
			for j := range di {
				di[j] += v * bk[j]
			}
		}
	}
	return dst
}

// MulVec returns m·v for a column vector v (len == Cols).
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if len(v) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// Adjoint returns the conjugate transpose mᴴ.
func (m *Matrix) Adjoint() *Matrix { return AdjointInto(NewMatrix(m.Cols, m.Rows), m) }

// AdjointInto writes mᴴ into dst (m.Cols×m.Rows, not aliasing m) and
// returns dst. It allocates nothing.
func AdjointInto(dst, m *Matrix) *Matrix {
	dst.checkShape(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return dst
}

// Transpose returns mᵀ (no conjugation).
func (m *Matrix) Transpose() *Matrix {
	r := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			r.Set(j, i, m.At(i, j))
		}
	}
	return r
}

// FrobeniusNorm returns sqrt(sum |m_ij|^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// ErrSingular is returned when a matrix has no usable inverse: some
// elimination pivot falls below 1e-300 in magnitude.
var ErrSingular = errors.New("linalg: singular matrix")

// Det returns the determinant of a square matrix via LU decomposition with
// partial pivoting.
func (m *Matrix) Det() complex128 {
	return DetInto(NewMatrix(m.Rows, m.Cols), m)
}

// DetInto returns the determinant of the square matrix m, using work (the
// same shape, not aliasing m) as elimination scratch; work's contents
// afterwards are unspecified. It allocates nothing.
func DetInto(work, m *Matrix) complex128 {
	if m.Rows != m.Cols {
		panic("linalg: Det of non-square matrix")
	}
	work.checkShape(m.Rows, m.Cols)
	n := m.Rows
	a := work.Data
	copy(a, m.Data)
	det := complex(1, 0)
	for col := 0; col < n; col++ {
		// The last column has no rows below it to pivot on.
		piv := col
		if col+1 < n {
			piv = pivotRow(work, col)
		}
		p := a[piv*n+col]
		if p == 0 {
			return 0
		}
		if piv != col {
			work.swapRows(piv, col)
			det = -det
		}
		det *= p
		d := newDivisor(real(p), imag(p))
		for r := col + 1; r < n; r++ {
			f := d.quo(a[r*n+col], p)
			if f == 0 {
				continue
			}
			// Column col is never read again, so only the columns right
			// of it are updated.
			for c := col + 1; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
		}
	}
	return det
}

// Inverse returns m⁻¹ (Gauss-Jordan with partial pivoting) or an error for
// singular matrices.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	inv := NewMatrix(m.Rows, m.Cols)
	if err := InverseInto(inv, NewMatrix(m.Rows, m.Cols), m); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseInto writes m⁻¹ into dst, using work as elimination scratch. m
// must be square and dst and work the same shape, all three distinct. It
// returns ErrSingular (leaving dst unspecified) for singular matrices and
// allocates nothing.
func InverseInto(dst, work, m *Matrix) error {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: inverse of non-square %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	dst.checkShape(n, n)
	work.checkShape(n, n)
	copy(work.Data, m.Data)
	return gaussJordan(dst, work)
}

// gaussJordan overwrites inv with a⁻¹ by Gauss-Jordan elimination with
// partial pivoting, destroying a (both n×n and distinct). It returns
// ErrSingular when a pivot's magnitude falls below 1e-300.
func gaussJordan(inv, a *Matrix) error {
	n := a.Rows
	setIdentity(inv)
	ad, id := a.Data, inv.Data
	for col := 0; col < n; col++ {
		// The last column has no rows below it to pivot on.
		piv := col
		if col+1 < n {
			piv = pivotRow(a, col)
		}
		p := ad[piv*n+col]
		// Singular when cmplx.Abs(p) < 1e-300. cmplx.Abs is never below
		// either part's magnitude, so it is computed only when both parts
		// are below the threshold.
		if math.Abs(real(p)) < 1e-300 && math.Abs(imag(p)) < 1e-300 && cmplx.Abs(p) < 1e-300 {
			return ErrSingular
		}
		if piv != col {
			a.swapRows(piv, col)
			inv.swapRows(piv, col)
		}
		// Columns col and left of it in a are never read again (the pivot
		// and each row's factor are taken before the update), so only the
		// columns right of col are normalized and eliminated; every entry
		// of inv is.
		d := newDivisor(real(p), imag(p))
		pr := col * n
		for c := col + 1; c < n; c++ {
			ad[pr+c] = d.quo(ad[pr+c], p)
		}
		for c := 0; c < n; c++ {
			id[pr+c] = d.quo(id[pr+c], p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			rr := r * n
			f := ad[rr+col]
			if f == 0 {
				continue
			}
			for c := col + 1; c < n; c++ {
				ad[rr+c] -= f * ad[pr+c]
			}
			for c := 0; c < n; c++ {
				id[rr+c] -= f * id[pr+c]
			}
		}
	}
	return nil
}

// Squared magnitudes in [sqLo, sqHi] carry only rounding error (no
// overflow, and any underflow in one part is negligible against the sum),
// a few ulps; two that differ by more than the relative tieTol order the
// cmplx.Abs values (themselves within a few ulps) the same way.
const (
	sqLo   = 1e-280
	sqHi   = 1e280
	tieTol = 1e-9
)

// pivotRow returns the row at or below col whose column-col entry has the
// largest cmplx.Abs, the first such row on ties — the partial-pivoting
// choice. Squared magnitudes decide a comparison when both lie in
// [sqLo, sqHi] and differ by more than tieTol; near-ties and extreme or
// non-finite entries compare cmplx.Abs values, so the row is exactly the
// one a cmplx.Abs search picks.
func pivotRow(a *Matrix, col int) int {
	n := a.Cols
	piv := col
	best := a.Data[col*n+col]
	bestSq := absSq(best)
	var bestAbs float64
	haveAbs := false
	for r := col + 1; r < a.Rows; r++ {
		v := a.Data[r*n+col]
		vSq := absSq(v)
		if vSq >= sqLo && vSq <= sqHi && bestSq >= sqLo && bestSq <= sqHi &&
			(vSq > bestSq*(1+tieTol) || vSq*(1+tieTol) < bestSq) {
			if vSq > bestSq {
				piv, best, bestSq, haveAbs = r, v, vSq, false
			}
			continue
		}
		if !haveAbs {
			bestAbs, haveAbs = cmplx.Abs(best), true
		}
		if vAbs := cmplx.Abs(v); vAbs > bestAbs {
			piv, best, bestSq, bestAbs = r, v, vSq, vAbs
		}
	}
	return piv
}

func absSq(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

// divisor is a complex divisor p prepared for repeated division: the ratio
// and denominator of Smith's algorithm, computed once exactly as the
// runtime's complex division computes them on every call, so d.quo(x, p)
// returns the bits of x / p. Both are small enough to inline, which the
// 2×2 eliminations of the CNF ascent depend on.
type divisor struct {
	ratio, denom float64
	realMajor    bool // |re p| ≥ |im p|
}

// newDivisor prepares division by re + im·i.
func newDivisor(re, im float64) divisor {
	if math.Abs(re) >= math.Abs(im) {
		ratio := im / re
		return divisor{ratio, re + ratio*im, true}
	}
	ratio := re / im
	return divisor{ratio, im + ratio*re, false}
}

// quo returns x / p for the p that d was prepared from.
func (d divisor) quo(x, p complex128) complex128 {
	var e, f float64
	if d.realMajor {
		e = (real(x) + imag(x)*d.ratio) / d.denom
		f = (imag(x) - real(x)*d.ratio) / d.denom
	} else {
		e = (real(x)*d.ratio + imag(x)) / d.denom
		f = (imag(x)*d.ratio - real(x)) / d.denom
	}
	if e != e && f != f {
		// Both parts NaN: the operator applies C99's recovery of
		// infinities and zeros.
		return x / p
	}
	return complex(e, f)
}

// row returns row i of m as a slice of its storage.
func (m *Matrix) row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

func (m *Matrix) swapRows(i, j int) {
	ri, rj := m.row(i), m.row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// checkShape panics unless m is rows×cols and its storage matches: the
// in-place kernels' guard against a wrong-size destination or scratch.
func (m *Matrix) checkShape(rows, cols int) {
	if m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
		panic(fmt.Sprintf("linalg: destination is %dx%d (%d elements), want %dx%d",
			m.Rows, m.Cols, len(m.Data), rows, cols))
	}
}

func (m *Matrix) checkSame(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
