package wifi

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"fastforward/internal/coding"
	"fastforward/internal/dsp"
	"fastforward/internal/fft"
	"fastforward/internal/linalg"
	"fastforward/internal/modulation"
	"fastforward/internal/ofdm"
)

// MIMOCodec is the 2-stream (802.11n-style) frame chain used by the
// paper's 2×2 experiments. The frame layout per transmit antenna is:
//
//	antenna 0: L-STF | L-LTF | SIG | HT-LTF1 | HT-LTF2 | data stream 0
//	antenna 1: 0     | 0     | 0   | HT-LTF1 | −HT-LTF2| data stream 1
//
// The legacy preamble and SIG ride on antenna 0 alone (detection, CFO and
// SIG decoding are SISO); the two HT-LTFs use the orthogonal P-matrix
// [[1,1],[1,−1]] so the receiver can estimate the full 2×2 channel per
// subcarrier, then zero-forcing-detect the two spatial streams.
type MIMOCodec struct {
	p   *ofdm.Params
	pre *ofdm.Preamble
	mod *ofdm.Modulator
	dem *ofdm.Demodulator
}

// NewMIMOCodec builds a 2-stream codec over the numerology.
func NewMIMOCodec(p *ofdm.Params) *MIMOCodec {
	return &MIMOCodec{
		p:   p,
		pre: ofdm.NewPreamble(p),
		mod: ofdm.NewModulator(p),
		dem: ofdm.NewDemodulator(p),
	}
}

// NStreams is the stream count (2 for the paper's prototype).
const NStreams = 2

// Params returns the codec's OFDM numerology.
func (c *MIMOCodec) Params() *ofdm.Params { return c.p }

// htltfSymbol builds one HT-LTF OFDM symbol scaled by sign.
func (c *MIMOCodec) htltfSymbol(sign float64) []complex128 {
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
func (c *MIMOCodec) EncodeMIMO(payload []byte, m MCS) ([][]complex128, error) {
	if len(payload)+4 > maxPayload {
		return nil, fmt.Errorf("wifi: payload of %d bytes exceeds maximum", len(payload))
	}
	psdu := make([]byte, 0, len(payload)+4)
	psdu = append(psdu, payload...)
	fcs := crc32.ChecksumIEEE(payload)
	psdu = append(psdu, byte(fcs), byte(fcs>>8), byte(fcs>>16), byte(fcs>>24))

	// Coded bit pipeline (shared encoder, then round-robin stream parsing).
	nDBPS := m.BitsPerSymbol(c.p) * NStreams
	nBits := serviceBits + 8*len(psdu) + tailBits
	nSym := (nBits + nDBPS - 1) / nDBPS
	total := nSym * nDBPS

	bits := make([]byte, 0, total)
	bits = append(bits, make([]byte, serviceBits)...)
	for _, b := range psdu {
		for k := 0; k < 8; k++ {
			bits = append(bits, b>>k&1)
		}
	}
	bits = append(bits, make([]byte, tailBits)...)
	bits = append(bits, make([]byte, total-len(bits))...)
	scrambled := coding.Scramble(bits, scramblerSeed)
	tailStart := serviceBits + 8*len(psdu)
	for i := 0; i < tailBits; i++ {
		scrambled[tailStart+i] = 0
	}
	coded := coding.EncodePunctured(scrambled, m.Rate)

	// Per-symbol, per-stream processing.
	nCBPSS := c.p.NumData() * m.Scheme.BitsPerSymbol() // coded bits/sym/stream
	ant0 := make([]complex128, 0, 4096)
	ant1 := make([]complex128, 0, 4096)

	// Legacy preamble + SIG on antenna 0 (SIG carries MCS and length).
	ant0 = append(ant0, c.pre.Samples()...)
	codec := Codec{p: c.p, pre: c.pre, mod: c.mod, dem: c.dem}
	sig, err := codec.encodeSIG(m.Index, len(psdu))
	if err != nil {
		return nil, err
	}
	ant0 = append(ant0, sig...)
	ant1 = append(ant1, make([]complex128, len(ant0))...)

	// HT-LTFs with the P matrix [[1,1],[1,-1]].
	ant0 = append(ant0, c.htltfSymbol(1)...)
	ant0 = append(ant0, c.htltfSymbol(1)...)
	ant1 = append(ant1, c.htltfSymbol(1)...)
	ant1 = append(ant1, c.htltfSymbol(-1)...)

	for s := 0; s < nSym; s++ {
		symBits := coded[s*NStreams*nCBPSS : (s+1)*NStreams*nCBPSS]
		// Stream parse: round-robin bit by bit.
		streams := [NStreams][]byte{}
		for i, b := range symBits {
			streams[i%NStreams] = append(streams[i%NStreams], b)
		}
		for st := 0; st < NStreams; st++ {
			il := coding.Interleave(streams[st], nCBPSS, m.Scheme.BitsPerSymbol())
			syms, err := modulation.Map(m.Scheme, il)
			if err != nil {
				return nil, err
			}
			td, err := c.mod.Symbol(syms)
			if err != nil {
				return nil, err
			}
			if st == 0 {
				ant0 = append(ant0, td...)
			} else {
				ant1 = append(ant1, td...)
			}
		}
	}
	// Normalize total transmit power (sum over antennas) to 1.
	pw := dsp.Power(ant0) + dsp.Power(ant1)
	if pw > 0 {
		g := 1 / math.Sqrt(pw)
		dsp.ScaleInPlace(ant0, g)
		dsp.ScaleInPlace(ant1, g)
	}
	return [][]complex128{ant0, ant1}, nil
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
func (c *MIMOCodec) DecodeMIMO(rx [][]complex128) (*MIMODecodeResult, error) {
	if len(rx) != NStreams || len(rx[0]) != len(rx[1]) {
		return nil, fmt.Errorf("wifi: DecodeMIMO needs %d equal-length streams", NStreams)
	}
	p := c.p
	// Detect on the antenna with the stronger legacy preamble correlation;
	// in practice antenna 0's copy suffices since both receive it.
	start, ok := ofdm.DetectPacket(rx[0], c.pre)
	if !ok {
		if start, ok = ofdm.DetectPacket(rx[1], c.pre); !ok {
			return nil, ErrNoPacket
		}
	}
	start -= syncBackoff
	if start < 0 {
		start = 0
	}
	if start+c.pre.Len()+3*p.SymbolLen() > len(rx[0]) {
		return nil, fmt.Errorf("wifi: truncated MIMO frame")
	}
	f0 := rx[0][start:]
	f1 := rx[1][start:]
	cfo := ofdm.EstimateCFO(f0, c.pre)
	f0 = ofdm.CorrectCFO(f0, cfo, p.SampleRate)
	f1 = ofdm.CorrectCFO(f1, cfo, p.SampleRate)

	res := &MIMODecodeResult{CFOHz: cfo, StartIndex: start}

	// Legacy channel estimate on each rx antenna (from antenna 0's LTF),
	// used only for SIG decoding.
	hLeg := ofdm.EstimateChannel(f0, c.pre)
	eq := ofdm.NewEqualizer(p, hLeg)
	codec := Codec{p: c.p, pre: c.pre, mod: c.mod, dem: c.dem}
	noiseVar := codec.estimateNoiseVar(f0, hLeg)
	off := c.pre.Len()
	mcsIdx, lengthBytes, err := codec.decodeSIG(f0[off:], eq, noiseVar, hLeg)
	if err != nil {
		return nil, err
	}
	m, err := MCSByIndex(mcsIdx)
	if err != nil {
		return nil, ErrSIG
	}
	res.MCS = m
	off += p.SymbolLen()

	// HT-LTF channel estimation: Y(t) per rx antenna and symbol t.
	H, err := c.estimateMIMOChannel(f0, f1, off)
	if err != nil {
		return nil, err
	}
	off += 2 * p.SymbolLen()

	// Data symbols.
	nDBPS := m.BitsPerSymbol(p) * NStreams
	nBits := serviceBits + 8*lengthBytes + tailBits
	nSym := (nBits + nDBPS - 1) / nDBPS
	if off+nSym*p.SymbolLen() > len(f0) {
		return nil, fmt.Errorf("wifi: truncated MIMO data (%d symbols)", nSym)
	}
	nCBPSS := p.NumData() * m.Scheme.BitsPerSymbol()
	soft := make([]float64, 0, nSym*NStreams*nCBPSS)
	var snrAcc [NStreams]float64
	usable := 0
	for s := 0; s < nSym; s++ {
		sym0 := f0[off+s*p.SymbolLen():]
		sym1 := f1[off+s*p.SymbolLen():]
		streamSoft, snrs, err := c.detectSymbol(sym0, sym1, H, m.Scheme, noiseVar)
		if err != nil {
			return nil, err
		}
		for st := 0; st < NStreams; st++ {
			snrAcc[st] += snrs[st]
		}
		usable++
		// Reassemble the round-robin parsed bit order.
		de0 := coding.DeinterleaveSoft(streamSoft[0], nCBPSS, m.Scheme.BitsPerSymbol())
		de1 := coding.DeinterleaveSoft(streamSoft[1], nCBPSS, m.Scheme.BitsPerSymbol())
		for i := 0; i < nCBPSS; i++ {
			soft = append(soft, de0[i], de1[i])
		}
	}
	for st := 0; st < NStreams; st++ {
		if usable > 0 {
			res.StreamSNRdB[st] = snrAcc[st] / float64(usable)
		}
	}
	totalBits := nSym * nDBPS
	scrambled := coding.DecodePunctured(soft, m.Rate, totalBits, false)
	bits := coding.Scramble(scrambled, scramblerSeed)
	psdu := make([]byte, lengthBytes)
	for i := range psdu {
		var b byte
		for k := 0; k < 8; k++ {
			b |= bits[serviceBits+8*i+k] << k
		}
		psdu[i] = b
	}
	if lengthBytes < 4 {
		return res, fmt.Errorf("wifi: PSDU too short for FCS")
	}
	payload := psdu[:lengthBytes-4]
	want := uint32(psdu[lengthBytes-4]) | uint32(psdu[lengthBytes-3])<<8 |
		uint32(psdu[lengthBytes-2])<<16 | uint32(psdu[lengthBytes-1])<<24
	if crc32.ChecksumIEEE(payload) == want {
		res.FCSOK = true
		res.Payload = payload
	}
	return res, nil
}

// estimateMIMOChannel recovers H(k) (2 rx × 2 streams) per subcarrier from
// the two HT-LTF symbols using the P matrix: Y = H·P·L per subcarrier,
// P = [[1,1],[1,-1]], so H = Y·P⁻¹/L with P⁻¹ = P/2.
func (c *MIMOCodec) estimateMIMOChannel(f0, f1 []complex128, off int) (map[int]*linalg.Matrix, error) {
	p := c.p
	if off+2*p.SymbolLen() > len(f0) {
		return nil, fmt.Errorf("wifi: truncated HT-LTF")
	}
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
	return H, nil
}

// detectSymbol zero-forcing-detects one OFDM symbol's two streams and
// soft-demaps them. It returns per-stream LLR slices and per-stream SNR
// estimates in dB.
func (c *MIMOCodec) detectSymbol(sym0, sym1 []complex128, H map[int]*linalg.Matrix, scheme modulation.Scheme, noiseVar float64) ([NStreams][]float64, [NStreams]float64, error) {
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
