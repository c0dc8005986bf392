// Package wifi implements a complete 20 MHz 802.11-style frame chain on top
// of the ofdm, modulation and coding packages: MCS definitions up to 256-QAM
// (the paper's headline modulations), a SIG field, scrambling, convolutional
// coding with puncturing, interleaving, OFDM modulation with preamble, and
// the corresponding receiver with packet detection, CFO recovery, channel
// estimation, soft demapping and Viterbi decoding. The FastForward relay
// operates below this layer; the wifi package is what the simulated AP and
// clients run, and what the evaluation uses to turn channels into packet
// error rates and PHY throughput.
package wifi

import (
	"fmt"

	"fastforward/internal/coding"
	"fastforward/internal/modulation"
	"fastforward/internal/ofdm"
)

// MCS describes one modulation-and-coding scheme of the PHY.
type MCS struct {
	// Index is the MCS number (0..9 per stream, following 802.11ac).
	Index int
	// Scheme is the constellation.
	Scheme modulation.Scheme
	// Rate is the convolutional code rate.
	Rate coding.Rate
	// MinSNRdB is the minimum post-processing SNR at which this MCS
	// sustains a low packet error rate over an AWGN channel. The table
	// tops out at 28 dB for 256-QAM 3/4, the figure the paper quotes as
	// "the maximum SNR required ... for the highest data rate".
	MinSNRdB float64
}

// mcsTable lists the supported rates in increasing order. SNR thresholds
// follow standard 802.11 receiver sensitivity deltas.
var mcsTable = []MCS{
	{0, modulation.BPSK, coding.Rate1_2, 2},
	{1, modulation.QPSK, coding.Rate1_2, 5},
	{2, modulation.QPSK, coding.Rate3_4, 9},
	{3, modulation.QAM16, coding.Rate1_2, 11},
	{4, modulation.QAM16, coding.Rate3_4, 15},
	{5, modulation.QAM64, coding.Rate2_3, 18},
	{6, modulation.QAM64, coding.Rate3_4, 20},
	{7, modulation.QAM64, coding.Rate5_6, 25},
	{8, modulation.QAM256, coding.Rate3_4, 28},
	{9, modulation.QAM256, coding.Rate5_6, 31},
}

// MCSList returns the MCS table (shared; callers must not modify).
func MCSList() []MCS { return mcsTable }

// MCSByIndex returns the MCS with the given index.
func MCSByIndex(i int) (MCS, error) {
	if i < 0 || i >= len(mcsTable) {
		return MCS{}, fmt.Errorf("wifi: no MCS %d", i)
	}
	return mcsTable[i], nil
}

// BitsPerSymbol returns data bits per OFDM symbol per spatial stream for
// the given numerology.
func (m MCS) BitsPerSymbol(p *ofdm.Params) int {
	coded := p.NumData() * m.Scheme.BitsPerSymbol()
	return int(float64(coded) * m.Rate.Fraction())
}

// PHYRateMbps returns the PHY bitrate in Mbit/s for nStreams spatial
// streams.
func (m MCS) PHYRateMbps(p *ofdm.Params, nStreams int) float64 {
	return float64(m.BitsPerSymbol(p)*nStreams) / p.SymbolDuration() / 1e6
}

// String renders the MCS.
func (m MCS) String() string {
	return fmt.Sprintf("MCS%d(%v %v)", m.Index, m.Scheme, m.Rate)
}

// HighestMCSForSNR returns the fastest MCS whose threshold is at or below
// snrDB, or ok=false if even MCS0 is not sustainable.
func HighestMCSForSNR(snrDB float64) (MCS, bool) {
	best := -1
	for i, m := range mcsTable {
		if snrDB >= m.MinSNRdB {
			best = i
		}
	}
	if best < 0 {
		return MCS{}, false
	}
	return mcsTable[best], true
}

// MaxSupportedRateMbps returns the PHY throughput for the best MCS at
// snrDB with nStreams streams, or 0 below sensitivity. This is the
// "optimal bitrate at any location given the SNR" metric of Sec 5.
func MaxSupportedRateMbps(p *ofdm.Params, snrDB float64, nStreams int) float64 {
	m, ok := HighestMCSForSNR(snrDB)
	if !ok {
		return 0
	}
	return m.PHYRateMbps(p, nStreams)
}
