// Package protocol closes the loop the paper describes in Sec 4.2: the
// relay never gets genie channel knowledge — it *measures* the
// source→relay channel from AP packets it overhears, measures the
// client→relay channel (= relay→client by reciprocity) from client
// transmissions it snoops, and learns the direct AP→client channel from
// the client's explicit sounding feedback, which the AP solicits every
// 50 ms and the relay decodes off the air.
//
// Everything here runs at the waveform level through the wifi codec: the
// sounding frame, the compressed feedback frame (quantized per-subcarrier
// channel estimates, as in 802.11's compressed beamforming report), the
// relay's own preamble-based channel estimation, and finally the data
// phase through the streaming relay configured from those estimates.
//
// The exchange requires the client to hear the sounding frame directly
// (edge clients at a few dB of SNR qualify; packets are detectable well
// below the lowest data MCS). A client in a *complete* dead zone cannot
// feed back its channel until the relay bootstraps it with blind
// forwarding — a deployment detail the paper leaves implicit.
package protocol

import (
	"fmt"
	"math"
	"math/cmplx"

	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/ofdm"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/wifi"
)

// Feedback quantization: 802.11-style compressed reports use a handful of
// bits per angle; we quantize I/Q to int8 against a per-report scale.
const feedbackBitsPerComponent = 8

// EncodeFeedback serializes a per-subcarrier channel estimate into a
// compressed feedback payload: a common scale exponent followed by
// int8-quantized I/Q pairs.
func EncodeFeedback(h []complex128) []byte {
	var maxAbs float64
	for _, v := range h {
		if a := math.Max(math.Abs(real(v)), math.Abs(imag(v))); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	// Scale so the largest component maps to 127; store the scale as a
	// float32 bit pattern. Extreme estimates (components below ~1e-37 or
	// above ~1e45) would overflow or underflow the float32 scale into a
	// value the decoder must reject, so clamp to the finite float32 range
	// and quantize with the exact scale that gets stored.
	s32 := float32(127 / maxAbs)
	if math.IsInf(float64(s32), 1) {
		s32 = math.MaxFloat32
	}
	if s32 <= 0 {
		s32 = math.SmallestNonzeroFloat32
	}
	scale := float64(s32)
	out := make([]byte, 0, 4+2*len(h))
	bits := math.Float32bits(s32)
	out = append(out, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	q := func(x float64) byte {
		v := math.Round(x * scale)
		if v > 127 {
			v = 127
		}
		if v < -127 {
			v = -127
		}
		return byte(int8(v))
	}
	for _, v := range h {
		out = append(out, q(real(v)), q(imag(v)))
	}
	return out
}

// DecodeFeedback inverts EncodeFeedback. n is the expected subcarrier
// count.
func DecodeFeedback(payload []byte, n int) ([]complex128, error) {
	if len(payload) < 4+2*n {
		return nil, fmt.Errorf("protocol: feedback payload too short (%d bytes for %d carriers)", len(payload), n)
	}
	bits := uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24
	scale := float64(math.Float32frombits(bits))
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("protocol: bad feedback scale")
	}
	h := make([]complex128, n)
	for i := 0; i < n; i++ {
		re := float64(int8(payload[4+2*i])) / scale
		im := float64(int8(payload[5+2*i])) / scale
		h[i] = complex(re, im)
	}
	return h, nil
}

// Session wires an AP, an FF relay and one client through waveform-level
// channels and runs the paper's control loop.
type Session struct {
	Params *ofdm.Params
	Codec  *wifi.Codec

	// Physical channels (ground truth, used only to propagate waveforms).
	ChSD, ChSR, ChRD *channel.SISO

	// Powers.
	TxPowerMW, NoiseMW float64

	// CancellationDB bounds the relay amplification.
	CancellationDB float64
	// RelayMaxTxDBm is the relay PA limit.
	RelayMaxTxDBm float64

	src *rng.Source

	// Relay-side state learned over the air.
	hsrEst, hrdEst, hsdEst []complex128
	ampDB                  float64
	filterTaps             []complex128
}

// NewSession builds a session over the given physical channels.
func NewSession(src *rng.Source, chSD, chSR, chRD *channel.SISO, txPowerDBm, noiseFigureDB float64) *Session {
	p := ofdm.Default20MHz()
	return &Session{
		Params:         p,
		Codec:          wifi.NewCodec(p),
		ChSD:           chSD,
		ChSR:           chSR,
		ChRD:           chRD,
		TxPowerMW:      dsp.WattsFromDBm(txPowerDBm) * 1000,
		NoiseMW:        channel.NoiseFloorMW() * dsp.Linear(noiseFigureDB),
		CancellationDB: 110,
		RelayMaxTxDBm:  txPowerDBm,
		src:            src,
	}
}

// transmit scales a frame to the TX power, propagates it over ch, and adds
// receiver noise.
func (s *Session) transmit(frame []complex128, ch *channel.SISO) []complex128 {
	wave := dsp.Scale(frame, math.Sqrt(s.TxPowerMW))
	wave = append(wave, make([]complex128, 64)...)
	rx := ch.Apply(wave)
	return channel.AWGN(s.src, rx, s.NoiseMW)
}

// estimateAt runs packet detection + CFO + LTF channel estimation at a
// receiver. The codec normalizes transmitted frames to unit power, so the
// raw LTF-based estimate carries an unknown common scale; it is calibrated
// against the *measured* receive power (what a real radio's RSSI reports)
// so the returned estimate is absolute. The measured frame power in mW is
// returned alongside.
func (s *Session) estimateAt(rx []complex128) ([]complex128, float64, error) {
	pre := ofdm.NewPreamble(s.Params)
	start, ok := ofdm.DetectPacket(rx, pre)
	if !ok {
		return nil, 0, fmt.Errorf("protocol: packet not detected")
	}
	frame := rx[start:]
	end := len(frame)
	if end > 2000 {
		end = 2000
	}
	rxPowerMW := dsp.Power(frame[:end])
	cfo := ofdm.EstimateCFO(frame, pre)
	frame = ofdm.CorrectCFO(frame, cfo, s.Params.SampleRate)
	h, _ := ofdm.EstimateChannel(frame, pre)
	if h == nil {
		return nil, 0, fmt.Errorf("protocol: preamble truncated")
	}
	out := make([]complex128, len(s.Params.DataCarriers))
	var rawGain float64
	for i, k := range s.Params.DataCarriers {
		out[i] = ofdm.ChannelAt(h, k, s.Params.NFFT)
		rawGain += real(out[i])*real(out[i]) + imag(out[i])*imag(out[i])
	}
	rawGain /= float64(len(out))
	if rawGain <= 0 {
		return nil, 0, fmt.Errorf("protocol: empty channel estimate")
	}
	// Calibrate: the true mean power gain is rxPower/txPower.
	cal := complex(math.Sqrt(rxPowerMW/s.TxPowerMW/rawGain), 0)
	for i := range out {
		out[i] *= cal
	}
	return out, rxPowerMW, nil
}

// RunSoundingExchange performs one full Sec 4.2 control round:
//
//  1. The AP transmits a sounding frame. The client estimates the direct
//     channel from its preamble; the relay estimates the AP→relay channel
//     from its own copy.
//  2. The client transmits the compressed feedback frame. The AP is the
//     addressee, but the relay snoops it: decoding the payload gives the
//     direct-channel estimate, and the frame's preamble gives the
//     client→relay channel — which by reciprocity is relay→client.
//  3. The relay computes the amplification bound and the CNF filter from
//     those estimates alone.
func (s *Session) RunSoundingExchange() error {
	mcs := wifi.MCSList()[0] // control traffic at the most robust rate
	// Sounding repeats every 50 ms, so a noise-faded attempt simply waits
	// for the next round; allow a few rounds before giving up.
	const rounds = 4

	// 1. Sounding frame, heard by client and relay.
	sounding, err := s.Codec.Encode([]byte("FF-NDP-sounding-frame"), mcs)
	if err != nil {
		return err
	}
	hsdAtClient, _, err := retryEstimate(rounds, func() ([]complex128, float64, error) {
		return s.estimateAt(s.transmit(sounding, s.ChSD))
	})
	if err != nil {
		return fmt.Errorf("client sounding estimate: %w", err)
	}
	var rxAtRelayMW float64
	s.hsrEst, rxAtRelayMW, err = retryEstimate(rounds, func() ([]complex128, float64, error) {
		return s.estimateAt(s.transmit(sounding, s.ChSR))
	})
	if err != nil {
		return fmt.Errorf("relay hsr estimate: %w", err)
	}

	// 2. Client feedback, snooped by the relay through the client→relay
	// channel (reciprocal of relay→client).
	fb, err := s.Codec.Encode(EncodeFeedback(hsdAtClient), mcs)
	if err != nil {
		return err
	}
	var decoded []byte
	for attempt := 0; attempt < rounds; attempt++ {
		atRelayFB := s.transmit(fb, s.ChRD) // reciprocity: same taps both ways
		h, _, errE := s.estimateAt(atRelayFB)
		if errE != nil {
			err = errE
			continue
		}
		res, errD := s.Codec.Decode(atRelayFB)
		if errD != nil || !res.FCSOK {
			err = fmt.Errorf("relay failed to decode snooped feedback: %v", errD)
			continue
		}
		s.hrdEst = h
		decoded = res.Payload
		err = nil
		break
	}
	if err != nil {
		return err
	}
	s.hsdEst, err = DecodeFeedback(decoded, len(s.Params.DataCarriers))
	if err != nil {
		return err
	}

	// 3. Amplification and filter from estimates. The receive power at the
	// relay is measured directly (RSSI) rather than inferred from the
	// channel estimate.
	paHeadroomDB := s.RelayMaxTxDBm - dsp.DBm(rxAtRelayMW/1000)
	s.ampDB = relay.ChooseAmplificationDB(s.CancellationDB, -dsp.PowerDB(s.hrdEst), paHeadroomDB, true).AmpDB
	// Denoise the estimates by projecting onto the physical channel
	// manifold (a few delay-domain taps): estimation noise is white across
	// subcarriers, the true channel is not. Without this, the noisy
	// per-subcarrier phases of the weak direct-link estimate make the
	// filter target jagged and the 4-tap fit rips the passband.
	s.hsdEst = denoise(s.hsdEst, s.Params.DataCarriers, s.Params.NFFT, 8)
	s.hsrEst = denoise(s.hsrEst, s.Params.DataCarriers, s.Params.NFFT, 8)
	s.hrdEst = denoise(s.hrdEst, s.Params.DataCarriers, s.Params.NFFT, 8)
	ideal := cnf.DesiredSISO(s.hsdEst, s.hsrEst, s.hrdEst, s.ampDB)
	// 3 taps at 20 Msps plus a 1-sample pipeline keeps the relayed path's
	// delay spread comfortably inside the CP, mirroring the paper's
	// <100 ns processing budget.
	s.filterTaps = fitPreFilter(ideal, s.Params.DataCarriers, s.Params.NFFT, 3)
	return nil
}

// denoise projects a per-subcarrier channel estimate onto a short
// delay-domain model by least squares and reconstructs it — the standard
// delay-truncation smoother for OFDM channel estimates. The basis spans a
// few *negative* delays too: timing acquisition can settle a couple of
// samples after the channel's first arrival, which shifts estimate energy
// to negative delays that a causal-only basis would destroy.
func denoise(h []complex128, carriers []int, nfft, nTaps int) []complex128 {
	const lead = 4
	_, fit, err := cnf.FitTaps(h, carriers, nfft, -lead, nTaps+lead)
	if err != nil {
		return h
	}
	return fit
}

// AmplificationDB returns the relay's learned amplification (valid after
// RunSoundingExchange).
func (s *Session) AmplificationDB() float64 { return s.ampDB }

// EstimatedChannels returns the relay's learned channel estimates.
func (s *Session) EstimatedChannels() (hsd, hsr, hrd []complex128) {
	return s.hsdEst, s.hsrEst, s.hrdEst
}

// DeliverData sends trials data frames at the given MCS through the
// configured relay (withRelay) or directly, returning the count decoded.
func (s *Session) DeliverData(payload []byte, mcs wifi.MCS, trials int, withRelay bool) (int, error) {
	if withRelay && s.filterTaps == nil {
		return 0, fmt.Errorf("protocol: run the sounding exchange first")
	}
	ok := 0
	for t := 0; t < trials; t++ {
		frame, err := s.Codec.Encode(payload, mcs)
		if err != nil {
			return ok, err
		}
		wave := dsp.Scale(frame, math.Sqrt(s.TxPowerMW))
		wave = append(wave, make([]complex128, 64)...)
		rx := s.ChSD.Apply(wave)
		if withRelay {
			ff := relay.New(relay.Config{
				SampleRate:           s.Params.SampleRate,
				AmplificationDB:      0, // gain folded into the filter taps
				PipelineDelaySamples: 1,
				PreFilterTaps:        s.filterTaps,
				RxNoiseMW:            s.NoiseMW,
				NoiseSource:          s.src.Fork(),
			})
			dsp.AddInPlace(rx, s.ChRD.Apply(ff.Process(s.ChSR.Apply(wave))))
		}
		rx = channel.AWGN(s.src, rx, s.NoiseMW)
		if res, err := s.Codec.Decode(rx); err == nil && res.FCSOK {
			ok++
		}
	}
	return ok, nil
}

// retryEstimate runs fn up to n times, returning the first success.
func retryEstimate(n int, fn func() ([]complex128, float64, error)) ([]complex128, float64, error) {
	var err error
	for i := 0; i < n; i++ {
		var h []complex128
		var p float64
		if h, p, err = fn(); err == nil {
			return h, p, nil
		}
	}
	return nil, 0, err
}

// fitPreFilter least-squares fits the desired per-subcarrier response onto
// an nTaps causal FIR at the PHY rate. The target's phase typically
// carries a bulk slope the FIR can only realize as internal group delay,
// so the fit searches over a few whole-sample delays of the target and
// keeps the best: this keeps the filter's magnitude flat (no passband
// ripple) at the cost of a slightly later relayed copy — still far inside
// the CP.
func fitPreFilter(desired []complex128, carriers []int, nfft, nTaps int) []complex128 {
	var best []complex128
	bestRes := math.Inf(1)
	for m := 0; m < nTaps; m++ {
		b := make([]complex128, len(carriers))
		for i, k := range carriers {
			rot := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(m)/float64(nfft)))
			b[i] = desired[i] * rot
		}
		taps, fit, err := cnf.FitTaps(b, carriers, nfft, 0, nTaps)
		if err != nil {
			continue
		}
		var res float64
		for i := range fit {
			d := fit[i] - b[i]
			res += real(d)*real(d) + imag(d)*imag(d)
		}
		if res < bestRes {
			bestRes = res
			best = taps
		}
	}
	if best == nil {
		panic("protocol: pre-filter fit failed")
	}
	return best
}
