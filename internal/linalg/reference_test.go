package linalg

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"testing"
)

// The ref* kernels below are the textbook forms InverseInto, DetInto,
// LeastSquares and NNLS had before their elimination and workspace were
// streamlined, and the n×n polar Newton projection Mat2.ProjectUnitary
// specializes, kept as the oracle FuzzKernelsMatchReference holds the
// production kernels to, bit for bit.

func refDetInto(work, m *Matrix) complex128 {
	if m.Rows != m.Cols {
		panic("linalg: Det of non-square matrix")
	}
	work.checkShape(m.Rows, m.Cols)
	n := m.Rows
	a := work
	copy(a.Data, m.Data)
	det := complex(1, 0)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in the column at or below the diagonal.
		piv, pmax := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax == 0 {
			return 0
		}
		if piv != col {
			a.swapRows(piv, col)
			det = -det
		}
		ap := a.row(col)
		p := ap[col]
		det *= p
		for r := col + 1; r < n; r++ {
			ar := a.row(r)
			f := ar[col] / p
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				ar[c] -= f * ap[c]
			}
		}
	}
	return det
}

func refInverseInto(dst, work, m *Matrix) error {
	if m.Rows != m.Cols {
		panic("linalg: inverse of non-square matrix")
	}
	n := m.Rows
	dst.checkShape(n, n)
	work.checkShape(n, n)
	a, inv := work, dst
	copy(a.Data, m.Data)
	setIdentity(inv)
	for col := 0; col < n; col++ {
		piv, pmax := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < 1e-300 {
			return ErrSingular
		}
		if piv != col {
			a.swapRows(piv, col)
			inv.swapRows(piv, col)
		}
		ap, ip := a.row(col), inv.row(col)
		p := ap[col]
		for c := range ap {
			ap[c] /= p
			ip[c] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			ar, ir := a.row(r), inv.row(r)
			f := ar[col]
			if f == 0 {
				continue
			}
			for c := range ar {
				ar[c] -= f * ap[c]
				ir[c] -= f * ip[c]
			}
		}
	}
	return nil
}

func refInverse(m *Matrix) (*Matrix, error) {
	inv := NewMatrix(m.Rows, m.Cols)
	if err := refInverseInto(inv, NewMatrix(m.Rows, m.Cols), m); err != nil {
		return nil, err
	}
	return inv, nil
}

func refProjectUnitary(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("linalg: ProjectUnitary needs square matrix")
	}
	n := m.Rows
	x, adj, inv, work := NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
	copy(x.Data, m.Data)
	for iter := 0; iter < 100; iter++ {
		if err := refInverseInto(inv, work, AdjointInto(adj, x)); err != nil {
			return nil, err
		}
		// next = (x + x⁻ᴴ)/2 element by element; diff accumulates
		// ‖next − x‖² in storage order before x takes the step.
		var diff float64
		for i, v := range x.Data {
			next := (v + inv.Data[i]) * complex(0.5, 0)
			d := next - v
			diff += real(d)*real(d) + imag(d)*imag(d)
			x.Data[i] = next
		}
		if math.Sqrt(diff) < 1e-12 {
			break
		}
	}
	return x, nil
}

func refLeastSquares(A *Matrix, b []complex128, lambda float64) ([]complex128, error) {
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
	inv, err := refInverse(AtA)
	if err != nil {
		return nil, err
	}
	return inv.MulVec(Atb), nil
}

func refNNLS(A [][]float64, b []float64, ridge float64) ([]float64, bool) {
	rows := len(A)
	if rows == 0 {
		return nil, false
	}
	cols := len(A[0])
	x := make([]float64, cols)
	passive := make([]bool, cols)
	resid := make([]float64, rows)
	grad := make([]float64, cols)
	// Scale-aware tolerance.
	var bn float64
	for _, v := range b {
		bn += v * v
	}
	tol := 1e-10 * (1 + bn)

	solvePassive := func() ([]float64, bool) {
		p := make([]int, 0, cols)
		for j, on := range passive {
			if on {
				p = append(p, j)
			}
		}
		if len(p) == 0 {
			return nil, true
		}
		M := NewMatrix(rows, len(p))
		rb := make([]complex128, rows)
		for r := 0; r < rows; r++ {
			rb[r] = complex(b[r], 0)
			for ji, j := range p {
				M.Set(r, ji, complex(A[r][j], 0))
			}
		}
		sol, err := refLeastSquares(M, rb, ridge)
		if err != nil {
			return nil, false
		}
		z := make([]float64, cols)
		for ji, j := range p {
			z[j] = real(sol[ji])
		}
		return z, true
	}

	for outer := 0; outer < 3*cols+10; outer++ {
		// Gradient w = Aᵀ(b − A·x).
		for r := 0; r < rows; r++ {
			s := b[r]
			for j := 0; j < cols; j++ {
				s -= A[r][j] * x[j]
			}
			resid[r] = s
		}
		for j := 0; j < cols; j++ {
			var s float64
			for r := 0; r < rows; r++ {
				s += A[r][j] * resid[r]
			}
			grad[j] = s
		}
		// Pick the most promising zero-set variable.
		best, bj := tol, -1
		for j := 0; j < cols; j++ {
			if !passive[j] && grad[j] > best {
				best, bj = grad[j], j
			}
		}
		if bj < 0 {
			return x, true // KKT satisfied
		}
		passive[bj] = true
		// Inner loop: keep the passive solution feasible.
		for inner := 0; inner < 3*cols+10; inner++ {
			z, ok := solvePassive()
			if !ok {
				return x, false
			}
			if z == nil {
				break
			}
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
	return x, true
}

// kernelCase encodes a fuzz input: the square size n and the row count
// of the least-squares systems (each 1 + byte mod 4), a ridge selector,
// then the float64 values that fill the inputs in order (missing values
// read as 0).
func kernelCase(n, rows, ridge byte, vals ...float64) []byte {
	data := []byte{n - 1, rows - 1, ridge}
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// kernelInputs decodes a kernelCase: the n×n matrix m, the rows×n complex
// system (A, b), its real counterpart (Ar, br) and a ridge.
type kernelInputs struct {
	m, A   *Matrix
	b      []complex128
	Ar     [][]float64
	br     []float64
	lambda float64
}

func decodeKernelCase(data []byte) (in kernelInputs, ok bool) {
	if len(data) < 3 {
		return in, false
	}
	n, rows := 1+int(data[0]%4), 1+int(data[1]%4)
	in.lambda = []float64{0, 1e-12, 1e-9, 1}[data[2]%4]
	data = data[3:]
	next := func() float64 {
		if len(data) < 8 {
			data = nil
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	in.m = NewMatrix(n, n)
	for i := range in.m.Data {
		in.m.Data[i] = complex(next(), next())
	}
	in.A = NewMatrix(rows, n)
	for i := range in.A.Data {
		in.A.Data[i] = complex(next(), next())
	}
	in.b = make([]complex128, rows)
	for i := range in.b {
		in.b[i] = complex(next(), next())
	}
	in.Ar = make([][]float64, rows)
	in.br = make([]float64, rows)
	for r := range in.Ar {
		in.Ar[r] = make([]float64, n)
		for j := range in.Ar[r] {
			in.Ar[r][j] = next()
		}
		in.br[r] = next()
	}
	return in, true
}

// sameBits reports whether x and y have the same Float64bits, treating
// every NaN as equal: Go leaves NaN payloads and signs unspecified, and
// the compiler may order a commutative operation's operands differently
// in two copies of the same source, which picks a different payload.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

func sameComplexBits(x, y []complex128) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if !sameBits(real(x[i]), real(y[i])) || !sameBits(imag(x[i]), imag(y[i])) {
			return false
		}
	}
	return true
}

// mat2MatchesReference holds the Mat2 kernels on the 2×2 matrices m and b
// to the general ones: Mul (both orders), Adjoint, Det and Inverse to
// MulInto, AdjointInto, DetInto and InverseInto, and ProjectUnitary to
// refProjectUnitary.
func mat2MatchesReference(t *testing.T, m, b *Matrix) {
	t.Helper()
	m2, b2 := ToMat2(m), ToMat2(b)
	same := func(name string, got Mat2, want *Matrix) {
		t.Helper()
		if !sameComplexBits(got[:], want.Data) {
			t.Fatalf("Mat2.%s %v, reference %v", name, got, want.Data)
		}
	}
	same("Mul", m2.Mul(b2), MulInto(NewMatrix(2, 2), m, b))
	same("Mul", b2.Mul(m2), MulInto(NewMatrix(2, 2), b, m))
	same("Adjoint", m2.Adjoint(), AdjointInto(NewMatrix(2, 2), m))

	if det, want := m2.Det(), DetInto(NewMatrix(2, 2), m); !sameComplexBits([]complex128{det}, []complex128{want}) {
		t.Fatalf("Mat2.Det %v, reference %v", det, want)
	}

	inv, err := m2.Inverse()
	wantInv := NewMatrix(2, 2)
	if wantErr := InverseInto(wantInv, NewMatrix(2, 2), m); err != wantErr {
		t.Fatalf("Mat2.Inverse error %v, reference %v", err, wantErr)
	}
	if err == nil {
		same("Inverse", inv, wantInv)
	}

	u, err := m2.ProjectUnitary()
	wantU, wantErr := refProjectUnitary(m)
	if err != wantErr {
		t.Fatalf("Mat2.ProjectUnitary error %v, reference %v", err, wantErr)
	}
	if err == nil {
		same("ProjectUnitary", u, wantU)
	}
}

// FuzzKernelsMatchReference holds InverseInto, DetInto, LeastSquares and
// NNLS to the reference kernels above, and every Mat2 kernel to its
// general counterpart on each 2×2 case: the same error, and the same
// Float64bits in every output (NaN matching any NaN), on 1×1 to 4×4
// inputs of any float64 values.
// The seeds aim at the places a faster pivot search or a hoisted division
// could diverge: pivots tied to within an ulp, magnitudes whose squares
// overflow or underflow, signed zeros, NaN and Inf, and pivots either
// side of the 1e-300 singularity threshold; and at the Mat2 kernels'
// own: a zero factor beside −0, Inf and NaN, a near-unitary projection,
// projections whose Newton iterate is singular or runs to the 100-iterate
// cap, and two projections of the CNF climb.
func FuzzKernelsMatchReference(f *testing.F) {
	up := math.Nextafter(1, 2)
	tiny := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	for _, seed := range [][]byte{
		// Pivot near-ties: |0.6+0.8i| and |0.8+0.6i| agree up to rounding,
		// 1 and its successor differ by one ulp.
		kernelCase(2, 3, 1, 0.6, 0.8, 1, 2, 0.8, 0.6, 3, 4),
		kernelCase(3, 4, 2, 1, 1, 0, 1, 2, 0, up, 1, 1, 0, 0, 1, 1, up, 3, 0, 1, 1),
		kernelCase(2, 2, 0, 1, 0, 2, 1, up, 0, 1, 2, 1, 0, up, 0, 1, 1, 1, up),
		kernelCase(4, 4, 1, 3, 4, 1, 0, 0, 1, 2, 2, 4, 3, 1, 1, 0, 2, 1, 0, 5, 0, 2, 1, 1, 1, 0, 5, 1, 2, 0, 3, 3, 3),
		// Squared magnitudes that overflow (above 1e154) or underflow
		// (below 1e-154).
		kernelCase(2, 3, 1, 1e155, 1e155, 1, 0, 2e155, 0, 0, 1, 1e160, -1e160, 3e-160, 1, 2, 3),
		kernelCase(2, 2, 2, 1e-160, 3e-160, 1, 1, 3e-160, 1e-160, 1, 2, 1e-170, 1e-170, 2e-170, 0, 1, 1, 0, 1),
		kernelCase(3, 3, 0, 1e300, 1e300, 1, 2, 3, 4, 1e-300, 1e-300, 5, 6, 7, 8, 1e200, -1e200, 1, 0, 0, 1, 1e-200, 1e-200),
		// Signed zeros, NaN and Inf.
		kernelCase(2, 2, 0, math.Copysign(0, -1), 0, 1, math.Copysign(0, -1), 0, math.Copysign(0, -1), 2, 1, math.Copysign(0, -1), 1),
		kernelCase(2, 2, 1, math.NaN(), 0, 1, 1, 1, math.NaN(), 2, 0, math.NaN(), math.NaN(), 1, 1),
		kernelCase(2, 3, 3, math.Inf(1), 0, 1, 2, math.Inf(-1), math.NaN(), 3, 4, 0, math.Inf(1), math.Inf(1), 1, 1),
		kernelCase(3, 2, 2, 1, 0, math.Inf(1), 1, 0, 0, 0, 1, math.NaN(), 1, 2, 0, 0, math.Inf(-1), 1, 1, 0, 0),
		// A zero beside a NaN in a least-squares row: the normal equations
		// skip zero terms, so AᴴA's second row stays zero (singular)
		// where 0·NaN would fill it with NaN.
		kernelCase(2, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, math.NaN(), 0, 0, 0, 1, 0),
		// Pivots either side of the 1e-300 singularity threshold, and
		// subnormal ones.
		kernelCase(2, 2, 0, 0.99e-300, 0.5e-300, 1, 0, 1.01e-300, 0, 0, 1),
		kernelCase(2, 2, 0, 1e-300, 0, 1, 0, 0, 0.9e-300, 1, 1, 0.8e-300, 0.6e-300, 1, 0),
		kernelCase(2, 3, 0, 0.7e-300, 0.7e-300, 1, 1, 1e-301, 0, 2, 3, tiny, tiny, 1, 0),
		kernelCase(1, 1, 0, tiny, 0, tiny, tiny, 1, 0),
		// Ordinary well-conditioned systems, for NNLS's active-set path.
		kernelCase(4, 4, 2, 0.3, -1.2, 0.5, 0.9, -0.7, 0.1, 1.1, -0.4, 0.8, 0.6, -0.2, 1.3, 0.4, -0.9, 1.0, 0.2,
			0.5, 0.5, -1, 2, 0.25, -0.75, 1.5, 0.1, -0.3, 0.7, 0.9, -1.1, 0.2, 0.4, 0.6, -0.8,
			1, 0, 2, 0, 0.5, 1, 1, 1, 0.3, -2, 1, 0, 0, 1, 2, 1,
			1, -1, 0.5, -0.5, 2, 1, 1, 0, -1, 3, 2, 1, 0.5, -0.5, 1, 0.25, -1, 0.5, 2, 1),
		// Mat2: zero entries of m (one of them −0) facing Inf and NaN in
		// the other factor, where Mul's zero skip keeps 0·Inf out.
		kernelCase(2, 2, 0, 0, 0, 1, 0, negZero, negZero, 2, 0,
			math.Inf(1), 0, math.NaN(), 1, 1, 0, 2, 0),
		kernelCase(2, 2, 0, 1, 0, negZero, 0, math.Inf(-1), 0, 0, negZero,
			0, 0, 1, 1, negZero, 0, math.NaN(), 0),
		// Mat2: a near-unitary matrix, as the CNF ascent projects.
		kernelCase(2, 2, 0, 0.6, 0, 0, 0.8, 0, 0.8, 0.6+1e-7, -1e-8),
		// Mat2: a projection whose first Newton iterate is singular, one
		// with a singular value of about 2⁻⁵² that converges, and one still
		// moving at the 100-iterate cap.
		kernelCase(2, 2, 0, 1, 1, 2, 2, 2, 2, 4, 4),
		kernelCase(2, 2, 0, 1, 0, 1, 0, 1, 0, up, 0),
		kernelCase(2, 2, 0, 1e300, 0, 0, 0, 0, 0, 1, 0),
		// Mat2: projections shaped like the sweep's, two candidates of
		// the CNF climb (climbCandidates).
		kernelCase(2, 2, 0, mat2Vals(climbCandidates[0])...),
		kernelCase(2, 2, 0, mat2Vals(climbCandidates[1])...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeKernelCase(data)
		if !ok {
			return
		}
		n := in.m.Rows

		inv, work := NewMatrix(n, n), NewMatrix(n, n)
		wantInv, wantWork := NewMatrix(n, n), NewMatrix(n, n)
		err := InverseInto(inv, work, in.m)
		wantErr := refInverseInto(wantInv, wantWork, in.m)
		if err != wantErr {
			t.Fatalf("InverseInto error %v, reference %v", err, wantErr)
		}
		if err == nil && !sameComplexBits(inv.Data, wantInv.Data) {
			t.Fatalf("InverseInto %v, reference %v", inv.Data, wantInv.Data)
		}

		if det, want := DetInto(work, in.m), refDetInto(wantWork, in.m); !sameComplexBits([]complex128{det}, []complex128{want}) {
			t.Fatalf("DetInto %v, reference %v", det, want)
		}

		x, err := LeastSquares(in.A, in.b, in.lambda)
		wantX, wantErr := refLeastSquares(in.A, in.b, in.lambda)
		if err != wantErr {
			t.Fatalf("LeastSquares error %v, reference %v", err, wantErr)
		}
		if !sameComplexBits(x, wantX) {
			t.Fatalf("LeastSquares %v, reference %v", x, wantX)
		}

		if n == 2 {
			b := in.m
			if in.A.Rows == 2 {
				b = in.A
			}
			mat2MatchesReference(t, in.m, b)
		}

		g, ok := NNLS(in.Ar, in.br, in.lambda)
		wantG, wantOK := refNNLS(in.Ar, in.br, in.lambda)
		if ok != wantOK || len(g) != len(wantG) {
			t.Fatalf("NNLS ok=%v len %d, reference ok=%v len %d", ok, len(g), wantOK, len(wantG))
		}
		for j := range g {
			if !sameBits(g[j], wantG[j]) {
				t.Fatalf("NNLS %v, reference %v", g, wantG)
			}
		}
	})
}
