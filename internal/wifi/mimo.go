package wifi

import (
	"errors"
	"fmt"

	"fastforward/internal/coding"
	"fastforward/internal/dsp"
	"fastforward/internal/fft"
	"fastforward/internal/linalg"
	"fastforward/internal/modulation"
	"fastforward/internal/ofdm"
)

// The 2-stream (802.11n-style) frame used by the paper's 2×2 experiments
// is a set of Codec methods. The frame layout per transmit antenna is:
//
//	antenna 0: L-STF | L-LTF | SIG | HT-LTF1 | HT-LTF2 | data stream 0
//	antenna 1: 0     | 0     | 0   | HT-LTF1 | −HT-LTF2| data stream 1
//
// The legacy preamble and SIG ride on antenna 0 alone (detection, CFO and
// SIG decoding are SISO); the two HT-LTFs use the orthogonal P-matrix
// [[1,1],[1,−1]] so the receiver can estimate the full 2×2 channel per
// subcarrier, then zero-forcing-detect the two spatial streams.

// NStreams is the stream count (2 for the paper's prototype).
const NStreams = 2

// htltfSymbol builds one HT-LTF OFDM symbol scaled by sign.
func (c *Codec) htltfSymbol(sign float64) []complex128 {
	bins := make([]complex128, c.p.NFFT)
	copy(bins, c.pre.LTFBins)
	for i := range bins {
		bins[i] *= complex(sign, 0)
	}
	td, err := c.mod.SymbolFromBins(bins)
	if err != nil {
		panic(err)
	}
	return td
}

// EncodeMIMO builds the two per-antenna waveforms for a frame carrying
// payload at MCS m over two spatial streams. Both waveforms share a
// common scale such that the total transmit power across antennas is 1.
// The sweep works on channel matrices, not waveforms, so only tests call
// it: it is the waveform-level fixture behind the Sec 1 / Fig 2 claim that
// the relay restores the second stream an RF pinhole takes away, pinned
// by TestMIMOPinholeFails and TestMIMORelayRestoresSecondStream.
func (c *Codec) EncodeMIMO(payload []byte, m MCS) ([][]complex128, error) {
	psdu, err := psduFor(payload)
	if err != nil {
		return nil, err
	}
	// Legacy preamble + SIG on antenna 0 (SIG carries MCS and length).
	sig, err := c.encodeSIG(m.Index, len(psdu))
	if err != nil {
		return nil, err
	}
	ant0 := append(c.pre.Samples(), sig...)
	ant1 := make([]complex128, len(ant0))

	// HT-LTFs with the P matrix [[1,1],[1,-1]].
	ant0 = append(ant0, c.htltfSymbol(1)...)
	ant0 = append(ant0, c.htltfSymbol(1)...)
	ant1 = append(ant1, c.htltfSymbol(1)...)
	ant1 = append(ant1, c.htltfSymbol(-1)...)

	// One encoder, then each symbol's bits parsed round robin bit by bit
	// across the streams.
	ants := [][]complex128{ant0, ant1}
	nDBPS := m.BitsPerSymbol(c.p) * NStreams
	coded := codedBits(psdu, nDBPS, m)
	nCBPSS := c.p.NumData() * m.Scheme.BitsPerSymbol() // coded bits/sym/stream
	for s := range numSymbols(len(psdu), nDBPS) {
		symBits := coded[s*NStreams*nCBPSS : (s+1)*NStreams*nCBPSS]
		streams := [NStreams][]byte{}
		for i, b := range symBits {
			streams[i%NStreams] = append(streams[i%NStreams], b)
		}
		for st, bits := range streams {
			td, err := c.dataSymbol(bits, m.Scheme)
			if err != nil {
				return nil, err
			}
			ants[st] = append(ants[st], td...)
		}
	}
	normalize(ants...)
	return ants, nil
}

// MIMODecodeResult reports 2-stream reception.
type MIMODecodeResult struct {
	Payload    []byte
	FCSOK      bool
	MCS        MCS
	CFOHz      float64
	StartIndex int
	// StreamSNRdB estimates the post-ZF SNR per stream (averaged over
	// subcarriers).
	StreamSNRdB [NStreams]float64
}

// ErrRankDeficient is returned when the estimated 2×2 channel cannot be
// inverted on enough subcarriers to detect two streams — the pinhole
// failure the paper's relay repairs.
var ErrRankDeficient = errors.New("wifi: channel rank-deficient for 2 streams")

// DecodeMIMO runs the 2-stream receiver on two antenna streams (equal
// lengths): detect and synchronize on the legacy preamble, decode SIG,
// estimate the 2×2 channel from the HT-LTFs, zero-forcing detect, and
// decode the shared bit stream.
func (c *Codec) DecodeMIMO(rx [][]complex128) (*MIMODecodeResult, error) {
	if len(rx) != NStreams || len(rx[0]) != len(rx[1]) {
		return nil, fmt.Errorf("wifi: DecodeMIMO needs %d equal-length streams", NStreams)
	}
	p := c.p
	// Both antennas receive the legacy preamble; antenna 0's copy is
	// tried first.
	start, err := c.detect(rx...)
	if err != nil {
		return nil, err
	}
	if start+c.pre.Len()+3*p.SymbolLen() > len(rx[0]) {
		return nil, fmt.Errorf("wifi: truncated MIMO frame")
	}
	f0 := rx[0][start:]
	f1 := rx[1][start:]
	cfo := ofdm.EstimateCFO(f0, c.pre)
	f0 = ofdm.CorrectCFO(f0, cfo, p.SampleRate)
	f1 = ofdm.CorrectCFO(f1, cfo, p.SampleRate)

	// The legacy channel (antenna 0's LTF) serves only SIG decoding; its
	// noise estimate scales the streams' LLRs.
	hdr, err := c.readHeader(f0)
	if err != nil {
		return nil, err
	}
	res := &MIMODecodeResult{MCS: hdr.mcs, CFOHz: cfo, StartIndex: start}
	off := c.pre.Len() + p.SymbolLen()

	// HT-LTF channel estimation: Y(t) per rx antenna and symbol t.
	H := c.estimateMIMOChannel(f0, f1, off)
	off += 2 * p.SymbolLen()

	// Data symbols.
	m := hdr.mcs
	nDBPS := m.BitsPerSymbol(p) * NStreams
	nSym := numSymbols(hdr.length, nDBPS)
	if off+nSym*p.SymbolLen() > len(f0) {
		return nil, fmt.Errorf("wifi: truncated MIMO data (%d symbols)", nSym)
	}
	nCBPSS := p.NumData() * m.Scheme.BitsPerSymbol()
	soft := make([]float64, 0, nSym*NStreams*nCBPSS)
	var snrAcc [NStreams]float64
	for s := 0; s < nSym; s++ {
		sym0 := f0[off+s*p.SymbolLen():]
		sym1 := f1[off+s*p.SymbolLen():]
		streamSoft, snrs, err := c.detectSymbol(sym0, sym1, H, m.Scheme, hdr.noiseVar)
		if err != nil {
			return nil, err
		}
		for st := 0; st < NStreams; st++ {
			snrAcc[st] += snrs[st]
		}
		// Reassemble the round-robin parsed bit order.
		de0 := coding.DeinterleaveSoft(streamSoft[0], nCBPSS, m.Scheme.BitsPerSymbol())
		de1 := coding.DeinterleaveSoft(streamSoft[1], nCBPSS, m.Scheme.BitsPerSymbol())
		for i := 0; i < nCBPSS; i++ {
			soft = append(soft, de0[i], de1[i])
		}
	}
	if nSym > 0 {
		for st := 0; st < NStreams; st++ {
			res.StreamSNRdB[st] = snrAcc[st] / float64(nSym)
		}
	}
	res.Payload, res.FCSOK, err = unpackPSDU(soft, m, nSym*nDBPS, hdr.length)
	return res, err
}

// estimateMIMOChannel recovers H(k) (2 rx × 2 streams) per subcarrier from
// the two HT-LTF symbols using the P matrix: Y = H·P·L per subcarrier,
// P = [[1,1],[1,-1]], so H = Y·P⁻¹/L with P⁻¹ = P/2.
// The caller has checked that both symbols lie inside f0 and f1.
func (c *Codec) estimateMIMOChannel(f0, f1 []complex128, off int) map[int]*linalg.Matrix {
	p := c.p
	y := [NStreams][2][]complex128{}
	for t := 0; t < 2; t++ {
		base := off + t*p.SymbolLen() + p.CPLen
		y[0][t] = fft.Forward(f0[base : base+p.NFFT])
		y[1][t] = fft.Forward(f1[base : base+p.NFFT])
	}
	H := make(map[int]*linalg.Matrix, p.NumUsed())
	for _, k := range p.UsedCarriers() {
		bin := k
		if bin < 0 {
			bin += p.NFFT
		}
		l := c.pre.LTFBins[bin]
		if l == 0 {
			continue
		}
		m := linalg.NewMatrix(2, 2)
		for r := 0; r < 2; r++ {
			y1 := y[r][0][bin] / l
			y2 := y[r][1][bin] / l
			// H[r][0] = (y1+y2)/2 ; H[r][1] = (y1-y2)/2.
			m.Set(r, 0, (y1+y2)/2)
			m.Set(r, 1, (y1-y2)/2)
		}
		H[k] = m
	}
	return H
}

// detectSymbol zero-forcing-detects one OFDM symbol's two streams and
// soft-demaps them. It returns per-stream LLR slices and per-stream SNR
// estimates in dB.
func (c *Codec) detectSymbol(sym0, sym1 []complex128, H map[int]*linalg.Matrix, scheme modulation.Scheme, noiseVar float64) ([NStreams][]float64, [NStreams]float64, error) {
	p := c.p
	var out [NStreams][]float64
	var snrs [NStreams]float64
	d0, _, err := c.dem.Symbol(sym0)
	if err != nil {
		return out, snrs, err
	}
	d1, _, err := c.dem.Symbol(sym1)
	if err != nil {
		return out, snrs, err
	}
	bad := 0
	var snrAcc [NStreams]float64
	for i, k := range p.DataCarriers {
		h, okH := H[k]
		var inv *linalg.Matrix
		if okH {
			inv, err = h.Inverse()
		}
		if !okH || err != nil {
			bad++
			for st := 0; st < NStreams; st++ {
				out[st] = append(out[st], make([]float64, scheme.BitsPerSymbol())...)
			}
			continue
		}
		x := inv.MulVec([]complex128{d0[i], d1[i]})
		// Post-ZF noise enhancement: row norms of the inverse scale the
		// noise on each detected stream.
		for st := 0; st < NStreams; st++ {
			var rowPow float64
			for cc := 0; cc < 2; cc++ {
				v := inv.At(st, cc)
				rowPow += real(v)*real(v) + imag(v)*imag(v)
			}
			nv := noiseVar * rowPow
			if nv <= 0 {
				nv = 1e-12
			}
			out[st] = append(out[st], modulation.SoftDemap(scheme, x[st:st+1], nv)...)
			snrAcc[st] += 1 / nv // unit-power constellations
		}
	}
	if bad > len(p.DataCarriers)/2 {
		return out, snrs, ErrRankDeficient
	}
	n := len(p.DataCarriers) - bad
	for st := 0; st < NStreams; st++ {
		if n > 0 {
			snrs[st] = dsp.DB(snrAcc[st] / float64(n))
		}
	}
	return out, snrs, nil
}
