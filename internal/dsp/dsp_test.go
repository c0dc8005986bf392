package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-90, -30, -3, 0, 3, 10, 20, 110} {
		if got := DB(Linear(db)); !approx(got, db, 1e-9) {
			t.Errorf("DB(Linear(%v)) = %v", db, got)
		}
	}
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -Inf")
	}
	if !math.IsInf(DB(-1), -1) {
		t.Error("DB(negative) should be -Inf")
	}
}

func TestDBmConversions(t *testing.T) {
	// 20 dBm = 100 mW.
	if got := WattsFromDBm(20); !approx(got, 0.1, 1e-12) {
		t.Errorf("WattsFromDBm(20) = %v, want 0.1", got)
	}
	if got := DBm(0.1); !approx(got, 20, 1e-9) {
		t.Errorf("DBm(0.1) = %v, want 20", got)
	}
}

func TestPowerAndEnergy(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if got := Power(x); !approx(got, 1, 1e-12) {
		t.Errorf("Power = %v, want 1", got)
	}
	if got := Energy(x); !approx(got, 4, 1e-12) {
		t.Errorf("Energy = %v, want 4", got)
	}
	if Power(nil) != 0 {
		t.Error("Power(nil) should be 0")
	}
}

func TestScaleAddSubMul(t *testing.T) {
	a := []complex128{1 + 1i, 2}
	b := []complex128{3, 4i}
	sum := Add(a, b)
	if sum[0] != 4+1i || sum[1] != 2+4i {
		t.Errorf("Add wrong: %v", sum)
	}
	diff := Sub(a, b)
	if diff[0] != -2+1i || diff[1] != 2-4i {
		t.Errorf("Sub wrong: %v", diff)
	}
	prod := Mul(a, b)
	if prod[0] != 3+3i || prod[1] != 8i {
		t.Errorf("Mul wrong: %v", prod)
	}
	sc := Scale(a, 2)
	if sc[0] != 2+2i || sc[1] != 4 {
		t.Errorf("Scale wrong: %v", sc)
	}
	// originals untouched
	if a[0] != 1+1i {
		t.Error("Scale mutated input")
	}
}

func TestDelay(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := Delay(x, 2)
	want := []complex128{0, 0, 1, 2}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Delay(+2) = %v", y)
		}
	}
	y = Delay(x, -1)
	want = []complex128{2, 3, 4, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Delay(-1) = %v", y)
		}
	}
	// Delay beyond length yields all zeros.
	y = Delay(x, 10)
	for _, v := range y {
		if v != 0 {
			t.Fatalf("Delay(10) should zero everything: %v", y)
		}
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []complex128{1 + 2i, 3, -1i}
	y := Convolve(x, []complex128{1})
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity convolution failed: %v", y)
		}
	}
}

func TestConvolveKnown(t *testing.T) {
	// (1 + z)(1 - z) = 1 - z^2
	y := Convolve([]complex128{1, 1}, []complex128{1, -1})
	want := []complex128{1, 0, -1}
	if len(y) != 3 {
		t.Fatalf("length %d", len(y))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Convolve = %v, want %v", y, want)
		}
	}
}

func TestFilterSameMatchesConvolvePrefix(t *testing.T) {
	x := []complex128{1, 2i, 3, -4, 5i, 6}
	h := []complex128{0.5, -0.25i, 0.1}
	full := Convolve(x, h)
	same := FilterSame(x, h)
	if len(same) != len(x) {
		t.Fatalf("FilterSame length %d", len(same))
	}
	for i := range same {
		if cmplx.Abs(same[i]-full[i]) > 1e-12 {
			t.Fatalf("FilterSame[%d] = %v, want %v", i, same[i], full[i])
		}
	}
}

func TestCrossCorrelateFindsOffset(t *testing.T) {
	ref := []complex128{1, -1, 1, 1, -1}
	x := make([]complex128, 20)
	copy(x[7:], ref)
	idx, peak := NormalizedCorrelationPeak(x, ref)
	if idx != 7 {
		t.Errorf("peak at %d, want 7", idx)
	}
	if !approx(peak, 1, 1e-9) {
		t.Errorf("normalized peak %v, want 1", peak)
	}
}

func TestCrossCorrelateRefLongerThanX(t *testing.T) {
	if c := CrossCorrelate([]complex128{1}, []complex128{1, 2}); c != nil {
		t.Error("expected nil for ref longer than x")
	}
}

func TestSNRdB(t *testing.T) {
	ref := []complex128{1, 1, 1, 1}
	rx := []complex128{1.1, 1, 0.9, 1}
	// noise power = (0.01+0+0.01+0)/4 = 0.005, signal = 1 -> 23.01 dB
	if got := SNRdB(ref, rx); !approx(got, 23.0103, 1e-3) {
		t.Errorf("SNRdB = %v", got)
	}
	if !math.IsInf(SNRdB(ref, ref), 1) {
		t.Error("identical signals should be +Inf SNR")
	}
}

func TestApplyCFOContinuity(t *testing.T) {
	x := make([]complex128, 100)
	for i := range x {
		x[i] = 1
	}
	full, _ := ApplyCFO(x, 1000, 20e6, 0)
	a, ph := ApplyCFO(x[:50], 1000, 20e6, 0)
	b, _ := ApplyCFO(x[50:], 1000, 20e6, ph)
	same := func(x, y complex128) bool {
		return sameBits(real(x), real(y)) && sameBits(imag(x), imag(y))
	}
	for i := 0; i < 50; i++ {
		if !same(full[i], a[i]) {
			t.Fatalf("sample %d: first block %v, whole signal %v (bit-exact required)", i, a[i], full[i])
		}
		if !same(full[50+i], b[i]) {
			t.Fatalf("sample %d: second block %v, whole signal %v (bit-exact required)", 50+i, b[i], full[50+i])
		}
	}
}

func TestApplyCFOInverse(t *testing.T) {
	x := []complex128{1 + 1i, 2 - 1i, -3, 4i, 0.5}
	y, _ := ApplyCFO(x, 31250, 20e6, 0.3)
	z, _ := ApplyCFO(y, -31250, 20e6, -0.3)
	for i := range x {
		if cmplx.Abs(x[i]-z[i]) > 1e-12 {
			t.Fatalf("CFO inverse failed at %d: %v vs %v", i, x[i], z[i])
		}
	}
}

func TestFIRStreamingMatchesConvolution(t *testing.T) {
	h := []complex128{1, 0.5i, -0.25, 0.125i}
	x := []complex128{1, 2, 3i, -4, 5, -6i, 7, 8}
	f := NewFIR(h)
	y := f.Process(x)
	want := FilterSame(x, h)
	for i := range y {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("FIR streaming mismatch at %d: %v vs %v", i, y[i], want[i])
		}
	}
}

func TestFIRStatePersistsAcrossBlocks(t *testing.T) {
	h := []complex128{1, -1, 0.5}
	x := []complex128{1, 2, 3, 4, 5, 6}
	f1 := NewFIR(h)
	whole := f1.Process(x)
	f2 := NewFIR(h)
	part := append(f2.Process(x[:2]), f2.Process(x[2:])...)
	for i := range whole {
		if whole[i] != part[i] {
			t.Fatalf("block processing differs at %d", i)
		}
	}
}

func TestFIRZeroDelayTap(t *testing.T) {
	// With h[0]=1 only, the FIR must be a pure pass-through: the current
	// input appears in the current output — the causality property the
	// paper's cancellation design depends on.
	f := NewFIR([]complex128{1})
	for i := 0; i < 10; i++ {
		in := complex(float64(i), -float64(i))
		if out := f.Push(in); out != in {
			t.Fatalf("zero-delay tap broken: in %v out %v", in, out)
		}
	}
}

func TestFIRReset(t *testing.T) {
	f := NewFIR([]complex128{0, 1}) // one-sample delay
	f.Push(42)
	f.Reset()
	if out := f.Push(1); out != 0 {
		t.Errorf("after reset, delayed output should be 0, got %v", out)
	}
}

func TestDelayLine(t *testing.T) {
	d := NewDelayLine(3)
	ins := []complex128{1, 2, 3, 4, 5}
	want := []complex128{0, 0, 0, 1, 2}
	for i, in := range ins {
		if out := d.Push(in); out != want[i] {
			t.Fatalf("DelayLine out[%d]=%v want %v", i, out, want[i])
		}
	}
	z := NewDelayLine(0)
	if out := z.Push(7); out != 7 {
		t.Error("zero delay line should pass through")
	}
}

func TestRotateAndPhase(t *testing.T) {
	x := []complex128{1}
	y := Rotate(x, math.Pi/2)
	if cmplx.Abs(y[0]-1i) > 1e-12 {
		t.Errorf("Rotate 90deg: %v", y[0])
	}
}

func TestQuickConvolutionLinearity(t *testing.T) {
	// Property: Convolve(a+b, h) == Convolve(a,h) + Convolve(b,h).
	f := func(re1, im1, re2, im2 []float64) bool {
		n := len(re1)
		for _, s := range [][]float64{im1, re2, im2} {
			if len(s) < n {
				n = len(s)
			}
		}
		if n == 0 {
			return true
		}
		if n > 32 {
			n = 32
		}
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(clamp(re1[i]), clamp(im1[i]))
			b[i] = complex(clamp(re2[i]), clamp(im2[i]))
		}
		h := []complex128{0.3, -0.2i, 0.1 + 0.1i}
		lhs := Convolve(Add(a, b), h)
		rhs := Add(Convolve(a, h), Convolve(b, h))
		for i := range lhs {
			if cmplx.Abs(lhs[i]-rhs[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickEnergyParseval(t *testing.T) {
	// Property: Energy(Scale(x,g)) == g^2 * Energy(x).
	f := func(res, ims []float64, g float64) bool {
		n := len(res)
		if len(ims) < n {
			n = len(ims)
		}
		if n == 0 {
			return true
		}
		if n > 64 {
			n = 64
		}
		g = clamp(g)
		x := make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i] = complex(clamp(res[i]), clamp(ims[i]))
		}
		lhs := Energy(Scale(x, g))
		rhs := g * g * Energy(x)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// clamp keeps quick-generated float64s in a numerically sane range.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v > 1e3 {
		return 1e3
	}
	if v < -1e3 {
		return -1e3
	}
	return v
}
