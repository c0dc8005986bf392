package channel

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"fastforward/internal/dsp"
	"fastforward/internal/rng"
)

func TestFlatChannel(t *testing.T) {
	c := NewFlat(0.5i)
	x := []complex128{1, 2, 3}
	y := c.Apply(x)
	for i := range x {
		if cmplx.Abs(y[i]-x[i]*0.5i) > 1e-12 {
			t.Fatalf("flat channel wrong at %d", i)
		}
	}
	if math.Abs(c.Gain()-0.25) > 1e-12 {
		t.Errorf("gain %v, want 0.25", c.Gain())
	}
	if math.Abs(c.GainDB()-(-6.0206)) > 1e-3 {
		t.Errorf("gainDB %v", c.GainDB())
	}
}

func TestRayleighNormalization(t *testing.T) {
	src := rng.New(1)
	var g float64
	const n = 2000
	for i := 0; i < n; i++ {
		g += NewRayleigh(src, 6, 0.5, 2.0).Gain()
	}
	g /= n
	if math.Abs(g-2.0) > 0.15 {
		t.Errorf("average Rayleigh gain %v, want 2.0", g)
	}
}

func TestFrequencyResponseMatchesApply(t *testing.T) {
	// Passing a subcarrier tone through the channel must multiply it by the
	// frequency response.
	src := rng.New(2)
	c := NewRayleigh(src, 5, 0.6, 1)
	const nfft = 64
	k := 7
	n := 256
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(i)/nfft))
	}
	y := c.Apply(tone)
	h := c.FrequencyResponse(k, nfft)
	// Skip the filter transient.
	for i := 20; i < n; i++ {
		if cmplx.Abs(y[i]-tone[i]*h) > 1e-9 {
			t.Fatalf("response mismatch at %d: %v vs %v", i, y[i], tone[i]*h)
		}
	}
}

func TestBulkDelayPhaseRamp(t *testing.T) {
	c := &SISO{Taps: []complex128{1}, Delay: 3}
	const nfft = 64
	for _, k := range []int{-10, 1, 20} {
		h := c.FrequencyResponse(k, nfft)
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*3/nfft))
		if cmplx.Abs(h-want) > 1e-12 {
			t.Errorf("k=%d: %v want %v", k, h, want)
		}
	}
}

func TestNoiseFloor(t *testing.T) {
	// -90 dBm = 1e-12 W = 1e-9 mW.
	if nf := NoiseFloorMW(); math.Abs(nf-1e-9) > 1e-15 {
		t.Errorf("noise floor %v mW", nf)
	}
}

func TestAWGNPower(t *testing.T) {
	src := rng.New(3)
	x := make([]complex128, 100000)
	y := AWGN(src, x, 0.25)
	if p := dsp.Power(y); math.Abs(p-0.25) > 0.01 {
		t.Errorf("noise power %v, want 0.25", p)
	}
}

func TestMIMOShape(t *testing.T) {
	m := NewMIMO(2, 3)
	if m.NRx() != 2 || m.NTx() != 3 {
		t.Fatal("shape wrong")
	}
	h := m.FrequencyResponse(5, 64)
	if h.Rows != 2 || h.Cols != 3 {
		t.Fatal("response shape wrong")
	}
	// Flat unit links: all entries 1.
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if cmplx.Abs(h.At(i, j)-1) > 1e-12 {
				t.Fatal("unit channel response wrong")
			}
		}
	}
}

func TestRichScatteringFullRank(t *testing.T) {
	src := rng.New(4)
	fullRank := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		m := NewRichScattering(src, 2, 2, 3, 0.5, 1)
		h := m.FrequencyResponse(10, 64)
		if h.Rank(1e-6) == 2 {
			fullRank++
		}
	}
	if fullRank < trials-1 {
		t.Errorf("rich scattering full rank in %d/%d trials", fullRank, trials)
	}
}

func TestPinholeRankOne(t *testing.T) {
	src := rng.New(5)
	for i := 0; i < 20; i++ {
		m := NewPinhole(src, 2, 2, 4, 0.5, 1)
		for _, k := range []int{-20, 1, 15} {
			h := m.FrequencyResponse(k, 64)
			sv := h.SingularValues()
			if sv[0] > 0 && sv[1]/sv[0] > 1e-9 {
				t.Fatalf("pinhole channel is not rank one at subcarrier %d: sv=%v", k, sv)
			}
		}
	}
}

func TestPinholeGainNormalization(t *testing.T) {
	src := rng.New(6)
	var g float64
	const n = 500
	for i := 0; i < n; i++ {
		g += NewPinhole(src, 2, 2, 3, 0.5, 0.7).AverageGain()
	}
	g /= n
	if math.Abs(g-0.7) > 0.1 {
		t.Errorf("pinhole average link gain %v, want 0.7", g)
	}
}

func TestMIMOApplySuperposition(t *testing.T) {
	src := rng.New(7)
	m := NewRichScattering(src, 2, 2, 3, 0.5, 1)
	x1 := src.NoiseVector(50, 1)
	x2 := src.NoiseVector(50, 1)
	zero := make([]complex128, 50)
	both := m.Apply([][]complex128{x1, x2})
	only1 := m.Apply([][]complex128{x1, zero})
	only2 := m.Apply([][]complex128{zero, x2})
	for r := 0; r < 2; r++ {
		sum := dsp.Add(only1[r], only2[r])
		for i := range sum {
			if cmplx.Abs(both[r][i]-sum[i]) > 1e-9 {
				t.Fatalf("superposition violated at rx %d sample %d", r, i)
			}
		}
	}
}

func TestScale(t *testing.T) {
	c := NewFlat(1)
	c.Scale(0.1)
	if math.Abs(c.GainDB()-(-20)) > 1e-9 {
		t.Errorf("scaled gain %v dB, want -20", c.GainDB())
	}
	m := NewMIMO(2, 2)
	m.Scale(0.5)
	if math.Abs(m.AverageGain()-0.25) > 1e-12 {
		t.Errorf("MIMO scaled gain %v", m.AverageGain())
	}
}

func TestQuickFrequencyResponseLinearInTaps(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		a := NewRayleigh(src, 4, 0.5, 1)
		b := NewRayleigh(src, 4, 0.5, 1)
		sum := &SISO{Taps: dsp.Add(a.Taps, b.Taps)}
		for _, k := range []int{-5, 3, 17} {
			lhs := sum.FrequencyResponse(k, 64)
			rhs := a.FrequencyResponse(k, 64) + b.FrequencyResponse(k, 64)
			if cmplx.Abs(lhs-rhs) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
