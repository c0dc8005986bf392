// Package phyrate turns effective channels into the paper's evaluation
// metric: PHY-layer throughput, "the optimal bitrate that can be used at
// any location given the SNR and the MIMO rank" (Sec 5). It selects the
// best MCS and spatial-stream count per link, handling the colored noise a
// relay adds (amplified relay noise arrives through the relay→destination
// channel) by noise whitening.
package phyrate

import (
	"math"

	"fastforward/internal/dsp"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/wifi"
)

// SISORateMbps returns the PHY throughput of a SISO link given
// per-subcarrier effective channel gains, transmit power and a flat noise
// plus an optional per-subcarrier extra noise term (relay noise).
func SISORateMbps(p *ofdm.Params, heff []complex128, txPowerMW, noiseMW float64, extraNoiseMW []float64) float64 {
	if len(heff) == 0 {
		return 0
	}
	var acc float64
	for i, h := range heff {
		n := noiseMW
		if extraNoiseMW != nil {
			n += extraNoiseMW[i]
		}
		if n <= 0 {
			continue
		}
		g := real(h)*real(h) + imag(h)*imag(h)
		acc += g * txPowerMW / n
	}
	snr := dsp.DB(acc / float64(len(heff)))
	return wifi.MaxSupportedRateMbps(p, snr, 1)
}

// NoiseCovariance returns the destination noise covariance for a relayed
// MIMO link: n0·I + nr·(Hrd·FA)(Hrd·FA)ᴴ, where Hrd·FA carries the
// relay's own receiver noise to the destination.
func NoiseCovariance(HrdFA *linalg.Matrix, n0, nr float64) *linalg.Matrix {
	n := HrdFA.Rows
	cov := linalg.Identity(n).Scale(n0)
	if nr > 0 {
		cov = cov.Add(HrdFA.Mul(HrdFA.Adjoint()).Scale(nr))
	}
	return cov
}

// whiten returns N^(-1/2)·H for a Hermitian positive-definite 2×2 noise
// covariance N, or H itself when invSqrt meets a singular iterate. Both
// are 2×2 (ToMat2 panics otherwise), so it allocates nothing.
func whiten(H, N *linalg.Matrix) linalg.Mat2 {
	h := linalg.ToMat2(H)
	inv, err := invSqrt(linalg.ToMat2(N))
	if err != nil {
		return h
	}
	return inv.Mul(h)
}

// invSqrt computes N^(-1/2) for Hermitian positive-definite N by
// Denman-Beavers iteration: y converges to N^(1/2) and z to N^(-1/2),
// stopping once y moves by less than 1e-14 of its Frobenius norm (at most
// 60 iterates).
func invSqrt(N linalg.Mat2) (linalg.Mat2, error) {
	y, z := N, linalg.Mat2{1, 0, 0, 1}
	for iter := 0; iter < 60; iter++ {
		yInv, err := y.Inverse()
		if err != nil {
			return linalg.Mat2{}, err
		}
		zInv, err := z.Inverse()
		if err != nil {
			return linalg.Mat2{}, err
		}
		// The squared norms of the step and of the next y sum in storage
		// order, as Matrix.FrobeniusNorm sums them.
		var stepSq, ySq float64
		for i := range y {
			next := (y[i] + zInv[i]) * complex(0.5, 0)
			d := next - y[i]
			stepSq += real(d)*real(d) + imag(d)*imag(d)
			ySq += real(next)*real(next) + imag(next)*imag(next)
			y[i], z[i] = next, (z[i]+yInv[i])*complex(0.5, 0)
		}
		if math.Sqrt(stepSq) < 1e-14*math.Sqrt(ySq) {
			break
		}
	}
	return z, nil
}

// MIMORate reports the best rate and stream count for a MIMO link.
type MIMORate struct {
	// RateMbps is the PHY throughput at the best configuration.
	RateMbps float64
	// Streams is the spatial stream count achieving it.
	Streams int
	// UsableStreams counts the streams whose SNR clears the lowest MCS
	// when transmit power is split across all antennas — the "number of
	// MIMO spatial streams possible" of the paper's Fig 2.
	UsableStreams int
	// PerStreamSNRdB holds the post-whitening per-stream SNRs of the best
	// configuration.
	PerStreamSNRdB []float64
}

// MIMORateMbps evaluates a MIMO link: Heff is the per-subcarrier effective
// channel (destination antennas × source antennas), noiseCov the
// per-subcarrier destination noise covariance (nil for white noise of
// power n0; otherwise it and Heff are 2×2). Transmit power txPowerMW is
// split evenly across streams. The function tries every stream count and
// picks the best sum rate, mapping per-stream SNR through the MCS table.
func MIMORateMbps(p *ofdm.Params, Heff []*linalg.Matrix, noiseCov []*linalg.Matrix, txPowerMW, n0 float64) MIMORate {
	if len(Heff) == 0 {
		return MIMORate{}
	}
	nRx := Heff[0].Rows
	nTx := Heff[0].Cols
	maxStreams := nRx
	if nTx < maxStreams {
		maxStreams = nTx
	}
	// Accumulate per-stream SNR (linear) across subcarriers using the
	// singular values of the whitened channel.
	acc := make([]float64, maxStreams)
	for i, H := range Heff {
		var W *linalg.Matrix
		if noiseCov != nil {
			W = whiten(H, noiseCov[i]).Matrix()
		} else {
			W = H.Scale(1 / math.Sqrt(n0))
		}
		sv := W.SingularValues()
		for s := 0; s < maxStreams && s < len(sv); s++ {
			acc[s] += sv[s] * sv[s]
		}
	}
	for s := range acc {
		acc[s] /= float64(len(Heff))
	}
	best := MIMORate{}
	// Streams "possible": power split across the full antenna count, count
	// eigen-channels clearing the lowest MCS sensitivity.
	mcs0 := wifi.MCSList()[0].MinSNRdB
	for s := 0; s < maxStreams; s++ {
		if dsp.DB(acc[s]*txPowerMW/float64(maxStreams)) >= mcs0 {
			best.UsableStreams++
		}
	}
	for ns := 1; ns <= maxStreams; ns++ {
		perStream := txPowerMW / float64(ns)
		var total float64
		snrs := make([]float64, ns)
		ok := true
		for s := 0; s < ns; s++ {
			snr := dsp.DB(acc[s] * perStream)
			snrs[s] = snr
			r := wifi.MaxSupportedRateMbps(p, snr, 1)
			if r == 0 && s == 0 {
				ok = false
				break
			}
			total += r
		}
		if !ok {
			continue
		}
		if total > best.RateMbps {
			best.RateMbps = total
			best.Streams = ns
			best.PerStreamSNRdB = snrs
		}
	}
	return best
}

// ClientClass buckets clients the way Fig 15 does.
type ClientClass int

// The three Fig 15 categories.
const (
	// LowSNRLowRank: edge of coverage, both SNR and rank poor (Fig 15a).
	LowSNRLowRank ClientClass = iota
	// MediumSNRLowRank: pinhole-limited clients (Fig 15b).
	MediumSNRLowRank
	// HighSNRHighRank: near the AP with rich scattering (Fig 15c).
	HighSNRHighRank
)

// String names the class.
func (c ClientClass) String() string {
	switch c {
	case LowSNRLowRank:
		return "low-SNR/low-rank"
	case MediumSNRLowRank:
		return "medium-SNR/low-rank"
	case HighSNRHighRank:
		return "high-SNR/high-rank"
	}
	return "unknown"
}

// Classify buckets a client from its AP-only link: SNR of the strongest
// stream and number of usable streams.
func Classify(topStreamSNRdB float64, usableStreams int) ClientClass {
	const goodSNR = 15.0
	if topStreamSNRdB < goodSNR && usableStreams <= 1 {
		return LowSNRLowRank
	}
	if usableStreams <= 1 {
		return MediumSNRLowRank
	}
	if topStreamSNRdB >= goodSNR {
		return HighSNRHighRank
	}
	return LowSNRLowRank
}

// RelativeGain returns a/b guarding against zero baselines; the paper's
// relative-throughput metric uses the half-duplex case as baseline
// (Sec 5) precisely because AP-only has zero-throughput dead spots.
func RelativeGain(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}
