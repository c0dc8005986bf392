package linalg

import "fmt"

// NNLS solves min ||A·x − b||₂ subject to x ≥ 0 with the classical
// active-set algorithm (Lawson & Hanson 1974), with a ridge penalty on the
// passive-set solves. A is row-major dense; intended for small systems.
func NNLS(A [][]float64, b []float64, ridge float64) ([]float64, bool) {
	if len(A) == 0 {
		return nil, false
	}
	x := make([]float64, len(A[0]))
	ok := NNLSInto(x, A, b, ridge, NewNNLSScratch(len(A), len(A[0])))
	return x, ok
}

// NNLSScratch is the caller-owned working storage of NNLSInto for systems
// of up to rows×cols.
type NNLSScratch struct {
	rows, cols int
	passive    []bool
	p          []int
	resid      []float64    // rows
	grad, z    []float64    // cols
	m          []complex128 // rows×cols capacity: the passive columns of A
	rb, sol    []complex128 // rows, cols
	ls         *LSScratch
}

// NewNNLSScratch returns scratch for NNLS systems of up to rows×cols.
func NewNNLSScratch(rows, cols int) *NNLSScratch {
	return &NNLSScratch{
		rows: rows, cols: cols,
		passive: make([]bool, cols),
		p:       make([]int, 0, cols),
		resid:   make([]float64, rows),
		grad:    make([]float64, cols),
		z:       make([]float64, cols),
		m:       make([]complex128, rows*cols),
		rb:      make([]complex128, rows),
		sol:     make([]complex128, cols),
		ls:      NewLSScratch(cols),
	}
}

// NNLSInto is NNLS writing the solution into x (len(A[0])), with s (at
// least len(A)×len(A[0])) as scratch. It returns false when a passive-set
// solve is singular, x then holding the last feasible iterate, and
// allocates nothing.
func NNLSInto(x []float64, A [][]float64, b []float64, ridge float64, s *NNLSScratch) bool {
	rows := len(A)
	if rows == 0 {
		return false
	}
	cols := len(A[0])
	if len(x) != cols || len(b) != rows || rows > s.rows || cols > s.cols {
		panic(fmt.Sprintf("linalg: NNLS of %dx%d (x %d, b %d) on scratch for %dx%d",
			rows, cols, len(x), len(b), s.rows, s.cols))
	}
	clear(x)
	passive, resid, grad := s.passive[:cols], s.resid[:rows], s.grad[:cols]
	clear(passive)
	rb := s.rb[:rows]
	for r := range rb {
		rb[r] = complex(b[r], 0)
	}
	// Scale-aware tolerance.
	var bn float64
	for _, v := range b {
		bn += v * v
	}
	tol := 1e-10 * (1 + bn)

	// solvePassive fits the passive columns by ridge least squares into
	// s.z (zero off the passive set). It reports whether any column is
	// passive and whether the solve succeeded.
	solvePassive := func() (nonEmpty, ok bool) {
		p := s.p[:0]
		for j, on := range passive {
			if on {
				p = append(p, j)
			}
		}
		if len(p) == 0 {
			return false, true
		}
		M := Matrix{Rows: rows, Cols: len(p), Data: s.m[:rows*len(p)]}
		for r := 0; r < rows; r++ {
			for ji, j := range p {
				M.Data[r*len(p)+ji] = complex(A[r][j], 0)
			}
		}
		// A light ridge discourages the huge opposing-gain solutions the
		// unregularized fit produces when extrapolating delay slopes; those
		// saturate the couplers and collapse after quantization.
		sol := s.sol[:len(p)]
		if err := LeastSquaresInto(sol, &M, rb, ridge, s.ls); err != nil {
			return true, false
		}
		z := s.z[:cols]
		clear(z)
		for ji, j := range p {
			z[j] = real(sol[ji])
		}
		return true, true
	}

	for outer := 0; outer < 3*cols+10; outer++ {
		// Gradient w = Aᵀ(b − A·x).
		for r := 0; r < rows; r++ {
			acc := b[r]
			for j := 0; j < cols; j++ {
				acc -= A[r][j] * x[j]
			}
			resid[r] = acc
		}
		for j := 0; j < cols; j++ {
			var acc float64
			for r := 0; r < rows; r++ {
				acc += A[r][j] * resid[r]
			}
			grad[j] = acc
		}
		// Pick the most promising zero-set variable.
		best, bj := tol, -1
		for j := 0; j < cols; j++ {
			if !passive[j] && grad[j] > best {
				best, bj = grad[j], j
			}
		}
		if bj < 0 {
			return true // KKT satisfied
		}
		passive[bj] = true
		// Inner loop: keep the passive solution feasible.
		for inner := 0; inner < 3*cols+10; inner++ {
			nonEmpty, ok := solvePassive()
			if !ok {
				return false
			}
			if !nonEmpty {
				break
			}
			z := s.z[:cols]
			negFound := false
			alpha := 1.0
			for j := 0; j < cols; j++ {
				if passive[j] && z[j] <= 0 {
					negFound = true
					if d := x[j] - z[j]; d > 0 {
						if a := x[j] / d; a < alpha {
							alpha = a
						}
					}
				}
			}
			if !negFound {
				copy(x, z)
				break
			}
			for j := 0; j < cols; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
					if x[j] <= 1e-14 {
						x[j] = 0
						passive[j] = false
					}
				}
			}
		}
	}
	return true
}
