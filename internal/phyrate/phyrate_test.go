package phyrate

import (
	"math"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
	"fastforward/internal/wifi"
)

func TestSISORateMatchesMCSTable(t *testing.T) {
	p := ofdm.Default20MHz()
	// Flat channel with known SNR.
	n := p.NumData()
	heff := make([]complex128, n)
	for i := range heff {
		heff[i] = 1e-4 // -80 dB gain
	}
	// 20 dBm TX, -90 dBm floor: SNR = 20 - 80 + 90 = 30 dB -> MCS8.
	rate := SISORateMbps(p, heff, 100, 1e-9, nil)
	want := wifi.MaxSupportedRateMbps(p, 30, 1)
	if math.Abs(rate-want) > 1e-9 {
		t.Errorf("rate %v, want %v", rate, want)
	}
	if rate == 0 {
		t.Fatal("expected nonzero rate at 30 dB")
	}
}

func TestSISORateExtraNoise(t *testing.T) {
	p := ofdm.Default20MHz()
	n := p.NumData()
	heff := make([]complex128, n)
	extra := make([]float64, n)
	for i := range heff {
		heff[i] = 1e-4
		extra[i] = 9e-9 // 10x the floor
	}
	with := SISORateMbps(p, heff, 100, 1e-9, extra)
	without := SISORateMbps(p, heff, 100, 1e-9, nil)
	if with >= without {
		t.Errorf("extra noise did not reduce rate: %v vs %v", with, without)
	}
}

func TestSISORateDeadLink(t *testing.T) {
	p := ofdm.Default20MHz()
	heff := make([]complex128, p.NumData()) // all zero
	if rate := SISORateMbps(p, heff, 100, 1e-9, nil); rate != 0 {
		t.Errorf("dead link rate %v, want 0", rate)
	}
}

func flatMIMO(g complex128, n int) []*linalg.Matrix {
	out := make([]*linalg.Matrix, n)
	for i := range out {
		m := linalg.NewMatrix(2, 2)
		m.Set(0, 0, g)
		m.Set(1, 1, g)
		out[i] = m
	}
	return out
}

func TestMIMORateTwoStreams(t *testing.T) {
	p := ofdm.Default20MHz()
	// Orthogonal 2x2 channel at high SNR: two streams win.
	heff := flatMIMO(1e-3, 8) // -60 dB per stream
	res := MIMORateMbps(p, heff, nil, 100, 1e-9)
	if res.Streams != 2 {
		t.Errorf("streams = %d, want 2 (per-stream SNRs %v)", res.Streams, res.PerStreamSNRdB)
	}
	// Per-stream SNR: 17 dBm per stream, -60 dB, -90 floor -> 47 dB.
	if math.Abs(res.PerStreamSNRdB[0]-47) > 0.5 {
		t.Errorf("per-stream SNR %v, want ~47", res.PerStreamSNRdB[0])
	}
}

func TestMIMORateRankOneFallsBackToOneStream(t *testing.T) {
	p := ofdm.Default20MHz()
	// Rank-one channel: second stream has zero SNR.
	heff := make([]*linalg.Matrix, 8)
	for i := range heff {
		m := linalg.NewMatrix(2, 2)
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				m.Set(r, c, 5e-4) // all-ones structure: rank 1
			}
		}
		heff[i] = m
	}
	res := MIMORateMbps(p, heff, nil, 100, 1e-9)
	if res.Streams != 1 {
		t.Errorf("rank-one channel used %d streams", res.Streams)
	}
}

func TestMIMORateLowSNRZero(t *testing.T) {
	p := ofdm.Default20MHz()
	heff := flatMIMO(1e-6, 4) // -120 dB: below sensitivity
	res := MIMORateMbps(p, heff, nil, 100, 1e-9)
	if res.RateMbps != 0 {
		t.Errorf("below-sensitivity rate %v", res.RateMbps)
	}
}

func TestNoiseCovarianceWhitening(t *testing.T) {
	// Relay noise through a strong Hrd·FA must reduce the achievable rate
	// versus white noise only.
	p := ofdm.Default20MHz()
	src := rng.New(1)
	heff := make([]*linalg.Matrix, 8)
	cov := make([]*linalg.Matrix, 8)
	for i := range heff {
		m := linalg.NewMatrix(2, 2)
		for j := range m.Data {
			m.Data[j] = src.ComplexGaussian(1e-8)
		}
		heff[i] = m
		hrdfa := linalg.NewMatrix(2, 2)
		for j := range hrdfa.Data {
			// Strong relay path: its amplified noise dominates the floor.
			hrdfa.Data[j] = src.ComplexGaussian(10)
		}
		cov[i] = NoiseCovariance(hrdfa, 1e-9, 1e-9)
	}
	withRelayNoise := MIMORateMbps(p, heff, cov, 100, 1e-9)
	whiteOnly := MIMORateMbps(p, heff, nil, 100, 1e-9)
	if withRelayNoise.RateMbps >= whiteOnly.RateMbps {
		t.Errorf("colored relay noise should reduce rate: %v vs %v",
			withRelayNoise.RateMbps, whiteOnly.RateMbps)
	}
}

func TestInvSqrt(t *testing.T) {
	// N^(-1/2)·N·N^(-1/2) = I.
	n := linalg.Mat2{complex(4, 0), complex(1, 0.5), complex(1, -0.5), complex(3, 0)}
	inv, err := invSqrt(n)
	if err != nil {
		t.Fatal(err)
	}
	prod := inv.Mul(n).Mul(inv).Matrix()
	if prod.Sub(linalg.Identity(2)).FrobeniusNorm() > 1e-9 {
		t.Errorf("invSqrt wrong:\n%v", prod)
	}
}

// whitenCase is a sweep-shaped whitening: a 2×2 channel against the
// covariance of relay noise 10 dB over the floor.
func whitenCase() (H, N *linalg.Matrix) {
	src := rng.New(7)
	H, G := linalg.NewMatrix(2, 2), linalg.NewMatrix(2, 2)
	for j := range H.Data {
		H.Data[j] = src.ComplexGaussian(1e-8)
		G.Data[j] = src.ComplexGaussian(1)
	}
	return H, NoiseCovariance(G, 1e-9, 1e-8)
}

// TestWhitenAllocs: a whitening works on Mat2 values, so it allocates
// nothing; MIMORateMbps runs one per carrier.
func TestWhitenAllocs(t *testing.T) {
	H, N := whitenCase()
	if n := testing.AllocsPerRun(20, func() { whitenSink = whiten(H, N) }); n != 0 {
		t.Errorf("whiten: %v allocs/op, want 0", n)
	}
}

var whitenSink linalg.Mat2

// BenchmarkWhiten times one whitening of whitenCase. `make bench-allocs`
// holds it at 0 allocs/op.
func BenchmarkWhiten(b *testing.B) {
	H, N := whitenCase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		whitenSink = whiten(H, N)
	}
}

func TestClassify(t *testing.T) {
	if got := Classify(5, 1); got != LowSNRLowRank {
		t.Errorf("edge client -> %v", got)
	}
	if got := Classify(20, 1); got != MediumSNRLowRank {
		t.Errorf("pinhole client -> %v", got)
	}
	if got := Classify(30, 2); got != HighSNRHighRank {
		t.Errorf("near client -> %v", got)
	}
	if got := Classify(5, 2); got != LowSNRLowRank {
		t.Errorf("weak but rich -> %v", got)
	}
}

func TestRelativeGain(t *testing.T) {
	if RelativeGain(30, 10) != 3 {
		t.Error("3x gain wrong")
	}
	if RelativeGain(0, 0) != 1 {
		t.Error("0/0 should be 1")
	}
	if !math.IsInf(RelativeGain(5, 0), 1) {
		t.Error("x/0 should be Inf")
	}
}

func TestMIMOBeatsSISOAtHighSNR(t *testing.T) {
	// Sanity: an orthogonal 2x2 at high SNR roughly doubles throughput,
	// the "MIMO rank expansion" effect the paper exploits.
	p := ofdm.Default20MHz()
	heff := flatMIMO(1e-3, 4)
	mimo := MIMORateMbps(p, heff, nil, 100, 1e-9)
	sisoH := make([]complex128, 4)
	for i := range sisoH {
		sisoH[i] = 1e-3
	}
	siso := SISORateMbps(p, sisoH, 100, 1e-9, nil)
	if mimo.RateMbps < 1.9*siso {
		t.Errorf("2x2 %v vs SISO %v: expected ~2x", mimo.RateMbps, siso)
	}
}

var _ = dsp.DB // keep dsp import if unused paths change
