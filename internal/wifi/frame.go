package wifi

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"fastforward/internal/coding"
	"fastforward/internal/dsp"
	"fastforward/internal/modulation"
	"fastforward/internal/ofdm"
)

// Codec encodes and decodes complete PHY frames: preamble, SIG symbol and
// data symbols. One Codec is safe for sequential reuse; it is not
// goroutine-safe.
type Codec struct {
	p   *ofdm.Params
	pre *ofdm.Preamble
	mod *ofdm.Modulator
	dem *ofdm.Demodulator
}

// NewCodec builds a frame codec over the given numerology.
func NewCodec(p *ofdm.Params) *Codec {
	return &Codec{
		p:   p,
		pre: ofdm.NewPreamble(p),
		mod: ofdm.NewModulator(p),
		dem: ofdm.NewDemodulator(p),
	}
}

// Params returns the codec's OFDM numerology.
func (c *Codec) Params() *ofdm.Params { return c.p }

// Preamble returns the codec's training fields.
func (c *Codec) Preamble() *ofdm.Preamble { return c.pre }

const (
	serviceBits   = 16
	tailBits      = 6
	scramblerSeed = 93
	// sigUncodedBits is the SIG field payload before coding: 4 MCS bits,
	// 14 length bits, 1 even-parity bit, 6 tail bits, 1 pad bit = 26, which
	// after rate-1/2 coding exactly fills one 52-carrier BPSK symbol.
	sigUncodedBits = 26
)

// maxPayload is the largest payload (including the 4-byte FCS) the 14-bit
// SIG length field can describe.
const maxPayload = 1<<14 - 1

// Encode builds the waveform for a frame carrying payload at the given MCS.
// A CRC-32 FCS is appended to the payload before encoding so the receiver
// can verify integrity. The returned waveform is normalized to unit average
// sample power.
func (c *Codec) Encode(payload []byte, m MCS) ([]complex128, error) {
	psdu, err := psduFor(payload)
	if err != nil {
		return nil, err
	}
	sig, err := c.encodeSIG(m.Index, len(psdu))
	if err != nil {
		return nil, err
	}
	wave := append(c.pre.Samples(), sig...)
	nDBPS := m.BitsPerSymbol(c.p)
	coded := codedBits(psdu, nDBPS, m)
	nCBPS := c.p.NumData() * m.Scheme.BitsPerSymbol()
	for s := range numSymbols(len(psdu), nDBPS) {
		td, err := c.dataSymbol(coded[s*nCBPS:(s+1)*nCBPS], m.Scheme)
		if err != nil {
			return nil, err
		}
		wave = append(wave, td...)
	}
	// Normalize to unit average power so channel gains are meaningful.
	normalize(wave)
	return wave, nil
}

// psduFor appends the CRC-32 FCS to payload.
func psduFor(payload []byte) ([]byte, error) {
	if len(payload)+4 > maxPayload {
		return nil, fmt.Errorf("wifi: payload of %d bytes exceeds maximum", len(payload))
	}
	fcs := crc32.ChecksumIEEE(payload)
	psdu := make([]byte, 0, len(payload)+4)
	psdu = append(psdu, payload...)
	return append(psdu, byte(fcs), byte(fcs>>8), byte(fcs>>16), byte(fcs>>24)), nil
}

// numSymbols is how many OFDM symbols of nDBPS data bits carry the
// SERVICE field, a PSDU of n bytes and the tail.
func numSymbols(n, nDBPS int) int {
	return (serviceBits + 8*n + tailBits + nDBPS - 1) / nDBPS
}

// codedBits lays out SERVICE | PSDU | tail | pad for symbols of nDBPS data
// bits, scrambles it, re-zeroes the tail so the decoder trellis terminates
// (802.11 17.3.5.3) and encodes it at m's code rate.
func codedBits(psdu []byte, nDBPS int, m MCS) []byte {
	total := numSymbols(len(psdu), nDBPS) * nDBPS
	bits := make([]byte, serviceBits, total)
	for _, b := range psdu {
		for k := 0; k < 8; k++ { // LSB first, 802.11 convention
			bits = append(bits, b>>k&1)
		}
	}
	tailStart := len(bits)
	bits = append(bits, make([]byte, total-len(bits))...) // tail + pad
	scrambled := coding.Scramble(bits, scramblerSeed)
	clear(scrambled[tailStart : tailStart+tailBits])
	return coding.EncodePunctured(scrambled, m.Rate)
}

// dataSymbol interleaves one stream's coded bits for one OFDM symbol, maps
// them onto scheme and modulates them.
func (c *Codec) dataSymbol(bits []byte, scheme modulation.Scheme) ([]complex128, error) {
	il := coding.Interleave(bits, len(bits), scheme.BitsPerSymbol())
	syms, err := modulation.Map(scheme, il)
	if err != nil {
		return nil, err
	}
	return c.mod.Symbol(syms)
}

// normalize scales the per-antenna waveforms by one common gain so their
// total average power is 1.
func normalize(ants ...[]complex128) {
	var pw float64
	for _, a := range ants {
		pw += dsp.Power(a)
	}
	if pw > 0 {
		g := 1 / math.Sqrt(pw)
		for _, a := range ants {
			dsp.ScaleInPlace(a, g)
		}
	}
}

// encodeSIG builds the one-symbol BPSK rate-1/2 SIG field.
func (c *Codec) encodeSIG(mcsIdx, lengthBytes int) ([]complex128, error) {
	if mcsIdx < 0 || mcsIdx > 15 {
		return nil, fmt.Errorf("wifi: MCS index %d out of SIG range", mcsIdx)
	}
	if lengthBytes < 0 || lengthBytes > maxPayload {
		return nil, fmt.Errorf("wifi: length %d out of SIG range", lengthBytes)
	}
	bits := make([]byte, 0, sigUncodedBits)
	for k := 3; k >= 0; k-- {
		bits = append(bits, byte(mcsIdx>>k&1))
	}
	for k := 13; k >= 0; k-- {
		bits = append(bits, byte(lengthBytes>>k&1))
	}
	var parity byte
	for _, b := range bits {
		parity ^= b
	}
	bits = append(bits, parity)
	bits = append(bits, make([]byte, tailBits+1)...) // tail + pad
	// Rate 1/2: 52 coded bits, one per carrier of one BPSK symbol.
	return c.dataSymbol(coding.ConvEncode(bits), modulation.BPSK)
}

// DecodeResult reports the outcome of frame reception.
type DecodeResult struct {
	// Payload is the recovered payload (FCS stripped); nil when FCSOK is
	// false.
	Payload []byte
	// FCSOK reports whether the frame checksum verified.
	FCSOK bool
	// MCS is the scheme signalled in the SIG field.
	MCS MCS
	// CFOHz is the estimated carrier frequency offset.
	CFOHz float64
	// StartIndex is the detected preamble start within the input.
	StartIndex int
	// SNRdB is the average post-equalization SNR estimate over data
	// subcarriers.
	SNRdB float64
}

// ErrNoPacket is returned when packet detection finds nothing.
var ErrNoPacket = errors.New("wifi: no packet detected")

// ErrSIG is returned when the SIG field fails its parity check.
var ErrSIG = errors.New("wifi: SIG field corrupted")

// syncBackoff advances the FFT trigger a few samples into the cyclic
// prefix: when a strong relayed (or reflected) copy arrives later than the
// first path, timing acquisition tends to settle on it, and decoding from
// there would push the tail of the delay spread out of the CP. Starting
// early is always safe — the CP absorbs it — and real receivers do the
// same.
const syncBackoff = 3

// Decode runs the full receiver on rx: detect, synchronize, estimate CFO
// and channel, decode SIG, then decode and verify the data.
func (c *Codec) Decode(rx []complex128) (*DecodeResult, error) {
	start, err := c.detect(rx)
	if err != nil {
		return nil, err
	}
	return c.DecodeAt(rx, start)
}

// detect locates the preamble on the first antenna whose capture holds
// one and backs the start off by syncBackoff.
func (c *Codec) detect(rx ...[]complex128) (int, error) {
	for _, r := range rx {
		if start, ok := ofdm.DetectPacket(r, c.pre); ok {
			return max(start-syncBackoff, 0), nil
		}
	}
	return 0, ErrNoPacket
}

// DecodeAt runs the receiver assuming the preamble starts at rx[start].
func (c *Codec) DecodeAt(rx []complex128, start int) (*DecodeResult, error) {
	p := c.p
	if start < 0 || start+c.pre.Len()+p.SymbolLen() > len(rx) {
		return nil, fmt.Errorf("wifi: truncated frame at %d", start)
	}
	frame := rx[start:]
	cfo := ofdm.EstimateCFO(frame, c.pre)
	frame = ofdm.CorrectCFO(frame, cfo, p.SampleRate)
	hdr, err := c.readHeader(frame)
	if err != nil {
		return nil, err
	}
	res := &DecodeResult{MCS: hdr.mcs, CFOHz: cfo, StartIndex: start}
	res.SNRdB = c.meanSNR(hdr.h, hdr.noiseVar)

	// Data symbols.
	off := c.pre.Len() + p.SymbolLen()
	m := hdr.mcs
	nDBPS := m.BitsPerSymbol(p)
	nSym := numSymbols(hdr.length, nDBPS)
	if off+nSym*p.SymbolLen() > len(frame) {
		return nil, fmt.Errorf("wifi: truncated data (%d symbols)", nSym)
	}
	nCBPS := p.NumData() * m.Scheme.BitsPerSymbol()
	soft := make([]float64, 0, nSym*nCBPS)
	for s := 0; s < nSym; s++ {
		raw, pilots, err := c.dem.Symbol(frame[off+s*p.SymbolLen():])
		if err != nil {
			return nil, err
		}
		eqd := hdr.eq.Symbol(raw, pilots)
		symSoft := c.softDemapSymbol(eqd, m.Scheme, hdr.h, hdr.noiseVar)
		soft = append(soft, coding.DeinterleaveSoft(symSoft, nCBPS, m.Scheme.BitsPerSymbol())...)
	}
	res.Payload, res.FCSOK, err = unpackPSDU(soft, m, nSym*nDBPS, hdr.length)
	return res, err
}

// header is what a receiver learns from the legacy preamble and SIG.
type header struct {
	h        []complex128 // legacy LTF channel estimate over NFFT bins
	eq       *ofdm.Equalizer
	noiseVar float64 // per-subcarrier noise variance after the FFT
	mcs      MCS
	length   int // PSDU bytes
}

// readHeader estimates the legacy channel and noise from the LTF of a
// synchronized, CFO-corrected frame and decodes its SIG symbol.
func (c *Codec) readHeader(frame []complex128) (header, error) {
	h, noiseVar := ofdm.EstimateChannel(frame, c.pre)
	if h == nil {
		return header{}, fmt.Errorf("wifi: preamble truncated")
	}
	eq := ofdm.NewEqualizer(c.p, h)
	raw, pilots, err := c.dem.Symbol(frame[c.pre.Len():])
	if err != nil {
		return header{}, err
	}
	soft := c.softDemapSymbol(eq.Symbol(raw, pilots), modulation.BPSK, h, noiseVar)
	bits := coding.ViterbiDecode(coding.DeinterleaveSoft(soft, c.p.NumData(), 1), sigUncodedBits, false)
	var mcsIdx, length int
	for k := 0; k < 4; k++ {
		mcsIdx = mcsIdx<<1 | int(bits[k])
	}
	for k := 4; k < 18; k++ {
		length = length<<1 | int(bits[k])
	}
	var parity byte
	for k := 0; k < 18; k++ {
		parity ^= bits[k]
	}
	m, err := MCSByIndex(mcsIdx)
	if parity != bits[18] || err != nil {
		return header{}, ErrSIG
	}
	return header{h: h, eq: eq, noiseVar: noiseVar, mcs: m, length: length}, nil
}

// unpackPSDU Viterbi-decodes the nBits data bits behind soft, descrambles
// them and checks the FCS of the length-byte PSDU they carry. The payload
// is nil unless the FCS verifies.
func unpackPSDU(soft []float64, m MCS, nBits, length int) ([]byte, bool, error) {
	if length < 4 {
		return nil, false, fmt.Errorf("wifi: PSDU too short for FCS")
	}
	bits := coding.Scramble(coding.DecodePunctured(soft, m.Rate, nBits, false), scramblerSeed)
	psdu := make([]byte, length)
	for i := range psdu {
		var b byte
		for k := 0; k < 8; k++ {
			b |= bits[serviceBits+8*i+k] << k
		}
		psdu[i] = b
	}
	payload := psdu[:length-4]
	want := uint32(psdu[length-4]) | uint32(psdu[length-3])<<8 |
		uint32(psdu[length-2])<<16 | uint32(psdu[length-1])<<24
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false, nil
	}
	return payload, true, nil
}

// softDemapSymbol demaps one equalized OFDM symbol with per-subcarrier
// noise scaling: after zero-forcing by H(k), the effective noise variance
// on subcarrier k is noiseVar/|H(k)|².
func (c *Codec) softDemapSymbol(eqd []complex128, s modulation.Scheme, h []complex128, noiseVar float64) []float64 {
	p := c.p
	out := make([]float64, 0, len(eqd)*s.BitsPerSymbol())
	for i, k := range p.DataCarriers {
		hk := ofdm.ChannelAt(h, k, p.NFFT)
		g := real(hk)*real(hk) + imag(hk)*imag(hk)
		nv := math.Inf(1)
		if g > 0 {
			nv = noiseVar / g
		}
		out = append(out, modulation.SoftDemap(s, eqd[i:i+1], nv)...)
	}
	return out
}

// meanSNR averages |H|²/noiseVar over data subcarriers, in dB.
func (c *Codec) meanSNR(h []complex128, noiseVar float64) float64 {
	p := c.p
	var acc float64
	for _, k := range p.DataCarriers {
		hk := ofdm.ChannelAt(h, k, p.NFFT)
		acc += real(hk)*real(hk) + imag(hk)*imag(hk)
	}
	acc /= float64(p.NumData())
	if noiseVar <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(acc/noiseVar)
}
