package phyrate

import (
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
)

// TestMIMORateGolden pins MIMORateMbps on seed-fixed 2×2 carrier sets:
// white noise (a nil covariance), and relay noise whitened through
// NoiseCovariance at relay-to-floor ratios from negligible (1e-6) to
// dominant (1e4). It records the rate, the stream counts and every
// per-stream SNR, so a change in the whitening shows here before the MCS
// table quantizes it away.
func TestMIMORateGolden(t *testing.T) {
	const (
		carriers = 16
		txMW     = 100
		n0       = 1e-9
	)
	p := ofdm.Default20MHz()
	got := map[string]float64{}
	record := func(name string, res MIMORate) {
		got[golden.Key("mimo_rate", name, "rate_mbps")] = res.RateMbps
		got[golden.Key("mimo_rate", name, "streams")] = float64(res.Streams)
		got[golden.Key("mimo_rate", name, "usable_streams")] = float64(res.UsableStreams)
		for s, snr := range res.PerStreamSNRdB {
			got[golden.Key("mimo_rate", name, "snr_db", s)] = snr
		}
	}
	draw := func(src *rng.Source, sigma2 float64) *linalg.Matrix {
		m := linalg.NewMatrix(2, 2)
		for j := range m.Data {
			m.Data[j] = src.ComplexGaussian(sigma2)
		}
		return m
	}
	for _, seed := range []int64{1, 2} {
		src := rng.New(seed)
		heff := make([]*linalg.Matrix, carriers)
		hrdfa := make([]*linalg.Matrix, carriers)
		for i := range heff {
			heff[i] = draw(src, 1e-8)
			hrdfa[i] = draw(src, 1)
		}
		record(golden.Key(seed, "white"), MIMORateMbps(p, heff, nil, txMW, n0))
		for _, ratio := range []float64{1e-6, 1e-2, 1, 1e2, 1e4} {
			cov := make([]*linalg.Matrix, carriers)
			for i := range cov {
				cov[i] = NoiseCovariance(hrdfa[i], n0, ratio*n0)
			}
			record(golden.Key(seed, "relay", ratio), MIMORateMbps(p, heff, cov, txMW, n0))
		}
	}
	golden.Check(t, "testdata/mimo_rate_golden.json", got)
}
