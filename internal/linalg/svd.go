package linalg

import (
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
	if len(b) != A.Rows {
		panic("linalg: LeastSquares dimension mismatch")
	}
	At := A.Adjoint()
	AtA := At.Mul(A)
	if lambda > 0 {
		for i := 0; i < AtA.Rows; i++ {
			AtA.Set(i, i, AtA.At(i, i)+complex(lambda, 0))
		}
	}
	Atb := At.MulVec(b)
	return AtA.Solve(Atb)
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
	adj, lu, inv *Matrix
}

// NewUnitaryScratch returns scratch for projecting n×n matrices.
func NewUnitaryScratch(n int) *UnitaryScratch {
	return &UnitaryScratch{adj: NewMatrix(n, n), lu: NewMatrix(n, n), inv: NewMatrix(n, n)}
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
	x := dst
	copy(x.Data, m.Data)
	for iter := 0; iter < 100; iter++ {
		if err := InverseInto(s.inv, s.lu, AdjointInto(s.adj, x)); err != nil {
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
