package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// SingularValues returns the singular values of m in descending order,
// computed with a one-sided Jacobi iteration on the columns of m (applied to
// the taller orientation for stability). Singular values drive MIMO rank and
// per-stream SNR computation.
func (m *Matrix) SingularValues() []float64 {
	a := m
	if a.Rows < a.Cols {
		a = a.Adjoint()
	}
	// One-sided Jacobi: orthogonalize column pairs of a working copy.
	w := a.Clone()
	n := w.Cols
	const maxSweeps = 60
	tol := 1e-13 * w.FrobeniusNorm() * w.FrobeniusNorm()
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq float64
				var apq complex128
				for i := 0; i < w.Rows; i++ {
					cp := w.At(i, p)
					cq := w.At(i, q)
					app += real(cp)*real(cp) + imag(cp)*imag(cp)
					aqq += real(cq)*real(cq) + imag(cq)*imag(cq)
					apq += cmplx.Conj(cp) * cq
				}
				if cmplx.Abs(apq) <= tol || cmplx.Abs(apq) < 1e-300 {
					continue
				}
				converged = false
				// Complex Jacobi rotation zeroing the off-diagonal of the
				// 2x2 Gram matrix [[app, apq],[conj(apq), aqq]].
				absApq := cmplx.Abs(apq)
				phase := apq / complex(absApq, 0)
				tau := (aqq - app) / (2 * absApq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				cs := complex(c, 0)
				sn := complex(s, 0) * phase
				for i := 0; i < w.Rows; i++ {
					cp := w.At(i, p)
					cq := w.At(i, q)
					w.Set(i, p, cs*cp-cmplx.Conj(sn)*cq)
					w.Set(i, q, sn*cp+cs*cq)
				}
			}
		}
		if converged {
			break
		}
	}
	// Column norms are the singular values.
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < w.Rows; i++ {
			v := w.At(i, j)
			s += real(v)*real(v) + imag(v)*imag(v)
		}
		sv[j] = math.Sqrt(s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}

// Rank returns the numerical rank of m: the number of singular values above
// tol times the largest singular value. A tol of 0 uses a default of 1e-9.
func (m *Matrix) Rank(tol float64) int {
	if tol <= 0 {
		tol = 1e-9
	}
	sv := m.SingularValues()
	if len(sv) == 0 || sv[0] == 0 {
		return 0
	}
	r := 0
	for _, s := range sv {
		if s > tol*sv[0] {
			r++
		}
	}
	return r
}

// EffectiveRank counts singular values within thresholdDB (power) of the
// strongest one: weak eigen-channels don't support a stream. The Fig 2
// heatmap counts streams by SNR instead (phyrate.MIMORate.UsableStreams),
// so only tests call it: it is the fixture behind the Sec 1 / Fig 2 claim
// that the relay raises a pinhole channel's rank, pinned by
// TestMIMORankRestoration (internal/cnf) and TestEffectiveRank.
func (m *Matrix) EffectiveRank(thresholdDB float64) int {
	sv := m.SingularValues()
	if len(sv) == 0 || sv[0] == 0 {
		return 0
	}
	ratio := math.Pow(10, -thresholdDB/20) // amplitude threshold
	r := 0
	for _, s := range sv {
		if s >= sv[0]*ratio {
			r++
		}
	}
	return r
}

// ConditionNumber returns σ_max/σ_min (Inf when singular).
func (m *Matrix) ConditionNumber() float64 {
	sv := m.SingularValues()
	if len(sv) == 0 {
		return math.Inf(1)
	}
	min := sv[len(sv)-1]
	if min == 0 {
		return math.Inf(1)
	}
	return sv[0] / min
}

// LeastSquares solves min_x ||A·x - b||₂ via the normal equations with
// Tikhonov regularization lambda (pass 0 for none; a tiny lambda guards
// against ill-conditioned tap-estimation problems in the canceller).
func LeastSquares(A *Matrix, b []complex128, lambda float64) ([]complex128, error) {
	x := make([]complex128, A.Cols)
	if err := LeastSquaresInto(x, A, b, lambda, NewLSScratch(A.Cols)); err != nil {
		return nil, err
	}
	return x, nil
}

// LSScratch is the caller-owned working storage of LeastSquaresInto for
// systems of up to n unknowns.
type LSScratch struct {
	n        int
	ata, inv []complex128 // n×n capacity each
	atb      []complex128
}

// NewLSScratch returns scratch for least-squares systems of up to n
// unknowns.
func NewLSScratch(n int) *LSScratch {
	buf := make([]complex128, 2*n*n+n)
	return &LSScratch{n: n, ata: buf[: n*n : n*n], inv: buf[n*n : 2*n*n : 2*n*n], atb: buf[2*n*n:]}
}

// LeastSquaresInto is LeastSquares writing the solution into x (len
// A.Cols, at most s's capacity). It returns ErrSingular (leaving x
// unspecified) when the regularized normal matrix is singular, and
// allocates nothing.
func LeastSquaresInto(x []complex128, A *Matrix, b []complex128, lambda float64, s *LSScratch) error {
	if len(b) != A.Rows || len(x) != A.Cols {
		panic("linalg: LeastSquares dimension mismatch")
	}
	k := A.Cols
	if k > s.n {
		panic(fmt.Sprintf("linalg: LeastSquares with %d unknowns on scratch for %d", k, s.n))
	}
	ata := Matrix{Rows: k, Cols: k, Data: s.ata[:k*k]}
	inv := Matrix{Rows: k, Cols: k, Data: s.inv[:k*k]}
	atb := s.atb[:k]
	// AᴴA and Aᴴb, each entry summed in the order of MulInto(Aᴴ, A) and
	// Aᴴ.MulVec(b), zero terms of the product skipped as MulInto skips
	// them.
	clear(ata.Data)
	for i := 0; i < k; i++ {
		di := ata.Data[i*k : (i+1)*k]
		var acc complex128
		for r := 0; r < A.Rows; r++ {
			ar := A.Data[r*k : (r+1)*k]
			v := cmplx.Conj(ar[i])
			acc += v * b[r]
			if v == 0 {
				continue
			}
			for j := range di {
				di[j] += v * ar[j]
			}
		}
		atb[i] = acc
	}
	if lambda > 0 {
		for i := 0; i < k; i++ {
			ata.Data[i*k+i] += complex(lambda, 0)
		}
	}
	if err := gaussJordan(&inv, &ata); err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		var acc complex128
		for j, v := range inv.Data[i*k : (i+1)*k] {
			acc += v * atb[j]
		}
		x[i] = acc
	}
	return nil
}

// ProjectUnitary returns the closest unitary matrix to m in Frobenius norm,
// computed via the polar decomposition using Newton's iteration
// X_{k+1} = (X_k + X_k^{-H})/2. Used by the CNF optimizer to keep the MIMO
// constructive filter F on the rotation-matrix manifold.
func (m *Matrix) ProjectUnitary() (*Matrix, error) {
	x := NewMatrix(m.Rows, m.Cols)
	if err := ProjectUnitaryInto(x, m, NewUnitaryScratch(m.Rows)); err != nil {
		return nil, err
	}
	return x, nil
}

// UnitaryScratch is the caller-owned n×n working storage of
// ProjectUnitaryInto.
type UnitaryScratch struct {
	lu, inv *Matrix
}

// NewUnitaryScratch returns scratch for projecting n×n matrices.
func NewUnitaryScratch(n int) *UnitaryScratch {
	return &UnitaryScratch{lu: NewMatrix(n, n), inv: NewMatrix(n, n)}
}

// ProjectUnitaryInto writes ProjectUnitary(m) into dst (square, the shape
// of m, and distinct from it), using s as scratch. It returns ErrSingular
// (leaving dst unspecified) when a Newton iterate is singular, and
// allocates nothing.
func ProjectUnitaryInto(dst, m *Matrix, s *UnitaryScratch) error {
	if m.Rows != m.Cols {
		panic("linalg: ProjectUnitary needs square matrix")
	}
	dst.checkShape(m.Rows, m.Cols)
	s.inv.checkShape(m.Rows, m.Cols)
	x := dst
	copy(x.Data, m.Data)
	for iter := 0; iter < 100; iter++ {
		// xᴴ goes straight into the elimination scratch.
		if err := gaussJordan(s.inv, AdjointInto(s.lu, x)); err != nil {
			return err
		}
		// next = (x + x⁻ᴴ)/2 element by element; diff accumulates
		// ‖next − x‖² in storage order before x takes the step.
		var diff float64
		for i, v := range x.Data {
			next := (v + s.inv.Data[i]) * complex(0.5, 0)
			d := next - v
			diff += real(d)*real(d) + imag(d)*imag(d)
			x.Data[i] = next
		}
		if math.Sqrt(diff) < 1e-12 {
			break
		}
	}
	return nil
}
