package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rows, cols int, seed int64) *Matrix {
	r := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

func matApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestIdentityMul(t *testing.T) {
	m := randMatrix(3, 3, 1)
	if !matApprox(m.Mul(Identity(3)), m, 1e-12) {
		t.Error("m·I != m")
	}
	if !matApprox(Identity(3).Mul(m), m, 1e-12) {
		t.Error("I·m != m")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 1}, {1, 0}})
	c := a.Mul(b)
	want := FromRows([][]complex128{{2, 1}, {4, 3}})
	if !matApprox(c, want, 1e-12) {
		t.Errorf("got\n%v", c)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 1i}, {2, 0}})
	v := a.MulVec([]complex128{1, 1})
	if v[0] != 1+1i || v[1] != 2 {
		t.Errorf("MulVec = %v", v)
	}
}

func TestAdjoint(t *testing.T) {
	a := FromRows([][]complex128{{1 + 1i, 2}, {3i, 4 - 1i}, {0, 5}})
	h := a.Adjoint()
	if h.Rows != 2 || h.Cols != 3 {
		t.Fatal("adjoint shape wrong")
	}
	if h.At(0, 0) != 1-1i || h.At(1, 1) != 4+1i || h.At(0, 1) != -3i {
		t.Errorf("adjoint values wrong:\n%v", h)
	}
}

func TestDetKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	if d := a.Det(); cmplx.Abs(d-(-2)) > 1e-12 {
		t.Errorf("det = %v, want -2", d)
	}
	// Complex case: det [[i,0],[0,i]] = -1.
	b := FromRows([][]complex128{{1i, 0}, {0, 1i}})
	if d := b.Det(); cmplx.Abs(d-(-1)) > 1e-12 {
		t.Errorf("det = %v, want -1", d)
	}
	// Singular.
	c := FromRows([][]complex128{{1, 2}, {2, 4}})
	if d := c.Det(); cmplx.Abs(d) > 1e-12 {
		t.Errorf("det of singular = %v, want 0", d)
	}
}

func TestDetOfProduct(t *testing.T) {
	a := randMatrix(4, 4, 2)
	b := randMatrix(4, 4, 3)
	lhs := a.Mul(b).Det()
	rhs := a.Det() * b.Det()
	if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(rhs)) {
		t.Errorf("det(AB)=%v != det(A)det(B)=%v", lhs, rhs)
	}
}

func TestInverse(t *testing.T) {
	a := randMatrix(4, 4, 5)
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !matApprox(a.Mul(inv), Identity(4), 1e-9) {
		t.Error("A·A⁻¹ != I")
	}
	if !matApprox(inv.Mul(a), Identity(4), 1e-9) {
		t.Error("A⁻¹·A != I")
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); err == nil {
		t.Error("expected error for singular matrix")
	}
}

func TestSingularValuesKnown(t *testing.T) {
	// Diagonal matrix: singular values are |diagonal|, sorted.
	a := FromRows([][]complex128{{3i, 0}, {0, -4}})
	sv := a.SingularValues()
	if math.Abs(sv[0]-4) > 1e-9 || math.Abs(sv[1]-3) > 1e-9 {
		t.Errorf("sv = %v, want [4 3]", sv)
	}
}

func TestSingularValuesRankOne(t *testing.T) {
	// Outer product u·vᴴ has exactly one nonzero singular value |u||v|.
	u := []complex128{1, 2i}
	v := []complex128{3, 4}
	a := NewMatrix(2, 2)
	for i := range u {
		for j := range v {
			a.Set(i, j, u[i]*cmplx.Conj(v[j]))
		}
	}
	sv := a.SingularValues()
	wantTop := math.Sqrt(5) * 5 // |u|=sqrt(5), |v|=5
	if math.Abs(sv[0]-wantTop) > 1e-9 {
		t.Errorf("top sv = %v, want %v", sv[0], wantTop)
	}
	if sv[1] > 1e-9 {
		t.Errorf("second sv = %v, want 0", sv[1])
	}
	if a.Rank(0) != 1 {
		t.Errorf("rank = %d, want 1", a.Rank(0))
	}
}

func TestSingularValuesVsFrobenius(t *testing.T) {
	// sum of squared singular values == squared Frobenius norm.
	a := randMatrix(3, 5, 8)
	sv := a.SingularValues()
	var sum float64
	for _, s := range sv {
		sum += s * s
	}
	fn := a.FrobeniusNorm()
	if math.Abs(sum-fn*fn) > 1e-8*(1+fn*fn) {
		t.Errorf("sum sv² = %v, ||A||F² = %v", sum, fn*fn)
	}
}

func TestEffectiveRank(t *testing.T) {
	a := FromRows([][]complex128{{1, 0}, {0, 0.01}})
	// Second stream is 40 dB (amplitude 100x) below: not usable at 20 dB.
	if r := a.EffectiveRank(20); r != 1 {
		t.Errorf("EffectiveRank(20dB) = %d, want 1", r)
	}
	if r := a.EffectiveRank(60); r != 2 {
		t.Errorf("EffectiveRank(60dB) = %d, want 2", r)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system recovers x exactly.
	A := randMatrix(10, 3, 11)
	xTrue := []complex128{1 + 1i, -2, 0.5i}
	b := A.MulVec(xTrue)
	x, err := LeastSquares(A, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if cmplx.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Residual of the LS solution must be orthogonal to the column space.
	A := randMatrix(12, 4, 13)
	r := rand.New(rand.NewSource(14))
	b := make([]complex128, 12)
	for i := range b {
		b[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	x, err := LeastSquares(A, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	Ax := A.MulVec(x)
	res := make([]complex128, len(b))
	for i := range b {
		res[i] = b[i] - Ax[i]
	}
	// Aᴴ·res should be ~0.
	proj := A.Adjoint().MulVec(res)
	for i, v := range proj {
		if cmplx.Abs(v) > 1e-8 {
			t.Errorf("residual not orthogonal: component %d = %v", i, v)
		}
	}
}

func TestProjectUnitary(t *testing.T) {
	m := randMatrix(3, 3, 17)
	u, err := m.ProjectUnitary()
	if err != nil {
		t.Fatal(err)
	}
	if !matApprox(u.Mul(u.Adjoint()), Identity(3), 1e-9) {
		t.Error("projection is not unitary")
	}
	// Projecting a unitary matrix is (nearly) a no-op.
	u2, err := u.ProjectUnitary()
	if err != nil {
		t.Fatal(err)
	}
	if !matApprox(u, u2, 1e-9) {
		t.Error("projection of unitary changed it")
	}
}

func TestConditionNumber(t *testing.T) {
	a := FromRows([][]complex128{{10, 0}, {0, 1}})
	if c := a.ConditionNumber(); math.Abs(c-10) > 1e-9 {
		t.Errorf("cond = %v, want 10", c)
	}
	b := FromRows([][]complex128{{1, 1}, {1, 1}})
	if !math.IsInf(b.ConditionNumber(), 1) {
		t.Error("singular matrix should have Inf condition number")
	}
}

func TestQuickDetUnitaryInvariance(t *testing.T) {
	// |det(U·A)| == |det(A)| for unitary U (here: permutation-free rotations
	// built by projecting a random matrix).
	f := func(seed int64) bool {
		a := randMatrix(3, 3, seed)
		u, err := randMatrix(3, 3, seed+1).ProjectUnitary()
		if err != nil {
			return true // singular random matrix: skip
		}
		lhs := cmplx.Abs(u.Mul(a).Det())
		rhs := cmplx.Abs(a.Det())
		return math.Abs(lhs-rhs) < 1e-7*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickSVDScaling(t *testing.T) {
	// Singular values scale linearly with |scalar|.
	f := func(seed int64, scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		scale = math.Mod(math.Abs(scale), 10) + 0.1
		a := randMatrix(2, 3, seed)
		sv1 := a.SingularValues()
		sv2 := a.Scale(scale).SingularValues()
		for i := range sv1 {
			if math.Abs(sv2[i]-scale*sv1[i]) > 1e-7*(1+scale*sv1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
