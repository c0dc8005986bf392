package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for i := 0; i < n; i++ {
			s += x[i] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*i)/float64(n)))
		}
		y[k] = s
	}
	return y
}

func randSignal(n int, seed int64) []complex128 {
	r := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 7, 12, 56, 100} {
		x := randSignal(n, int64(n))
		got := Forward(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8 {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 64, 128, 56, 63, 100} {
		x := randSignal(n, int64(1000+n))
		y := Inverse(Forward(x))
		if e := maxErr(x, y); e > 1e-9 {
			t.Errorf("n=%d: roundtrip error %v", n, e)
		}
	}
}

func TestImpulse(t *testing.T) {
	// DFT of an impulse is all ones.
	x := make([]complex128, 64)
	x[0] = 1
	y := Forward(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestSingleTone(t *testing.T) {
	// A complex tone at bin 5 should produce energy only at bin 5.
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*5*float64(i)/n))
	}
	y := Forward(x)
	for k, v := range y {
		want := complex128(0)
		if k == 5 {
			want = complex(n, 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestParseval(t *testing.T) {
	x := randSignal(128, 7)
	y := Forward(x)
	var ex, ey float64
	for i := range x {
		ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	ey /= float64(len(x))
	if math.Abs(ex-ey) > 1e-8*(1+ex) {
		t.Errorf("Parseval violated: %v vs %v", ex, ey)
	}
}

func TestFrequencyResponse(t *testing.T) {
	// A pure one-sample delay has response exp(-j2πf).
	h := []complex128{0, 1}
	for _, f := range []float64{-0.4, -0.1, 0, 0.2, 0.5} {
		got := FrequencyResponse(h, f)
		want := cmplx.Exp(complex(0, -2*math.Pi*f))
		if cmplx.Abs(got-want) > 1e-12 {
			t.Errorf("H(%v) = %v, want %v", f, got, want)
		}
	}
	// FrequencyResponse at bin centers matches the DFT.
	taps := randSignal(8, 3)
	dft := Forward(taps)
	for k := 0; k < 8; k++ {
		got := FrequencyResponse(taps, float64(k)/8)
		if cmplx.Abs(got-dft[k]) > 1e-9 {
			t.Errorf("bin %d: %v vs %v", k, got, dft[k])
		}
	}
}

func TestQuickLinearity(t *testing.T) {
	f := func(seed1, seed2 int64) bool {
		a := randSignal(64, seed1)
		b := randSignal(64, seed2)
		sum := make([]complex128, 64)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		lhs := Forward(sum)
		fa, fb := Forward(a), Forward(b)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(fa[i]+fb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickConvolutionTheorem(t *testing.T) {
	// Circular convolution in time == multiplication in frequency.
	f := func(seed int64) bool {
		const n = 32
		a := randSignal(n, seed)
		b := randSignal(n, seed+99)
		// circular convolution
		c := make([]complex128, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c[(i+j)%n] += a[i] * b[j]
			}
		}
		fa, fb, fc := Forward(a), Forward(b), Forward(c)
		for i := 0; i < n; i++ {
			if cmplx.Abs(fc[i]-fa[i]*fb[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForward64(b *testing.B) {
	x := randSignal(64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkForward1024(b *testing.B) {
	x := randSignal(1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}
