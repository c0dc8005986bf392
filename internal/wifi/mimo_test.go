package wifi

import (
	"bytes"
	"math"
	"testing"

	"fastforward/internal/channel"
	"fastforward/internal/dsp"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
)

// applyMIMO passes two TX streams through a 2x2 channel and adds noise.
func applyMIMO(src *rng.Source, ch *channel.MIMO, tx [][]complex128, noiseMW float64, pad int) [][]complex128 {
	padded := make([][]complex128, len(tx))
	for i := range tx {
		padded[i] = append(append(make([]complex128, pad), tx[i]...), make([]complex128, pad)...)
	}
	rx := ch.Apply(padded)
	if noiseMW > 0 {
		for i := range rx {
			rx[i] = dsp.Add(rx[i], src.NoiseVector(len(rx[i]), noiseMW))
		}
	}
	return rx
}

// identityMIMO returns a 2x2 identity channel scaled by g.
func identityMIMO(g complex128) *channel.MIMO {
	m := channel.NewMIMO(2, 2)
	m.Links[0][1] = channel.NewFlat(0)
	m.Links[1][0] = channel.NewFlat(0)
	m.Links[0][0] = channel.NewFlat(g)
	m.Links[1][1] = channel.NewFlat(g)
	return m
}

func TestMIMOEncodeShape(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	tx, err := c.EncodeMIMO(testPayload(200, 1), MCSList()[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(tx) != 2 || len(tx[0]) != len(tx[1]) {
		t.Fatal("expected two equal-length streams")
	}
	// Total power across antennas is 1.
	if p := dsp.Power(tx[0]) + dsp.Power(tx[1]); math.Abs(p-1) > 1e-9 {
		t.Errorf("total power %v, want 1", p)
	}
	// Legacy preamble region is silent on antenna 1.
	pre := c.Params()
	silent := ofdm.NewPreamble(pre).Len() + pre.SymbolLen()
	if dsp.Power(tx[1][:silent]) > 0 {
		t.Error("antenna 1 must be silent during legacy preamble + SIG")
	}
}

func TestMIMOCleanRoundTrip(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(300, 2)
	src := rng.New(3)
	for _, m := range []MCS{MCSList()[0], MCSList()[3], MCSList()[6], MCSList()[8]} {
		tx, err := c.EncodeMIMO(payload, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rx := applyMIMO(src, identityMIMO(1), tx, 0, 100)
		res, err := c.DecodeMIMO(rx)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.FCSOK || !bytes.Equal(res.Payload, payload) {
			t.Fatalf("%v: clean 2x2 roundtrip failed", m)
		}
		if res.MCS.Index != m.Index {
			t.Fatalf("%v: SIG decoded MCS %d", m, res.MCS.Index)
		}
	}
}

func TestMIMORichChannelWithNoise(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(150, 4)
	src := rng.New(5)
	decoded := 0
	const trials = 6
	for i := 0; i < trials; i++ {
		ch := channel.NewRichScattering(src, 2, 2, 3, 0.5, 1)
		tx, _ := c.EncodeMIMO(payload, MCSList()[3])
		// ~30 dB SNR per antenna.
		rx := applyMIMO(src, ch, tx, 0.5e-3, 100)
		res, err := c.DecodeMIMO(rx)
		if err == nil && res.FCSOK && bytes.Equal(res.Payload, payload) {
			decoded++
		}
	}
	if decoded < trials-1 {
		t.Errorf("decoded %d/%d frames over rich 2x2 channels", decoded, trials)
	}
}

func TestMIMOPinholeFails(t *testing.T) {
	// The Fig 2 pathology at waveform level: a rank-one channel cannot
	// carry two spatial streams no matter the SNR.
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(100, 6)
	src := rng.New(7)
	fails := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		ch := channel.NewPinhole(src, 2, 2, 1, 0.5, 1)
		tx, _ := c.EncodeMIMO(payload, MCSList()[3])
		rx := applyMIMO(src, ch, tx, 1e-5, 100) // generous SNR
		res, err := c.DecodeMIMO(rx)
		if err != nil || !res.FCSOK {
			fails++
		}
	}
	if fails < trials-1 {
		t.Errorf("pinhole channel decoded %d/%d 2-stream frames; expected failure",
			trials-fails, trials)
	}
}

func TestMIMORelayRestoresSecondStream(t *testing.T) {
	// The paper's headline MIMO mechanism, end to end at the waveform
	// level: direct pinhole channel fails 2-stream decoding; adding the
	// relayed path (direct + independent relay path) succeeds.
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(120, 8)
	src := rng.New(9)

	pin := channel.NewPinhole(src, 2, 2, 1, 0.5, 1e-2)
	// Relay path: AP->relay and relay->client both rich; model the relay
	// as an ideal 2x2 forwarder with gain (frequency-flat F=I) to isolate
	// the rank effect.
	sr := channel.NewRichScattering(src, 2, 2, 1, 0.5, 1e-1)
	rd := channel.NewRichScattering(src, 2, 2, 1, 0.5, 1e-1)
	amp := 3.0

	tx, _ := c.EncodeMIMO(payload, MCSList()[2])
	noise := 2e-6

	// Direct only.
	rxDirect := applyMIMO(src, pin, tx, noise, 100)
	resD, errD := c.DecodeMIMO(rxDirect)
	directOK := errD == nil && resD.FCSOK

	// Direct + relayed: relayed = rd(amp * sr(tx)).
	pad := 100
	padded := make([][]complex128, 2)
	for i := range tx {
		padded[i] = append(append(make([]complex128, pad), tx[i]...), make([]complex128, pad)...)
	}
	atRelay := sr.Apply(padded)
	for i := range atRelay {
		dsp.ScaleInPlace(atRelay[i], amp)
	}
	relayed := rd.Apply(atRelay)
	direct := pin.Apply(padded)
	rx := make([][]complex128, 2)
	for i := range rx {
		rx[i] = dsp.Add(direct[i], relayed[i])
		rx[i] = dsp.Add(rx[i], src.NoiseVector(len(rx[i]), noise))
	}
	resR, errR := c.DecodeMIMO(rx)
	relayOK := errR == nil && resR.FCSOK

	if directOK {
		t.Error("pinhole-only 2-stream frame should not decode")
	}
	if !relayOK {
		t.Errorf("relay-assisted 2-stream frame should decode (err=%v)", errR)
	}
}

func TestMIMOWithCFO(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(80, 10)
	src := rng.New(11)
	tx, _ := c.EncodeMIMO(payload, MCSList()[2])
	for i := range tx {
		tx[i], _ = dsp.ApplyCFO(tx[i], 90e3, 20e6, 0.3)
	}
	rx := applyMIMO(src, identityMIMO(1), tx, 1e-5, 100)
	res, err := c.DecodeMIMO(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FCSOK {
		t.Fatal("2x2 frame with CFO failed")
	}
	if math.Abs(res.CFOHz-90e3) > 500 {
		t.Errorf("CFO estimate %v, want 90k", res.CFOHz)
	}
}

func TestMIMOStreamSNREstimates(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(80, 12)
	src := rng.New(13)
	tx, _ := c.EncodeMIMO(payload, MCSList()[2])
	rx := applyMIMO(src, identityMIMO(1), tx, 1e-4, 100)
	res, err := c.DecodeMIMO(rx)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric identity channel: both streams see similar SNR.
	if math.Abs(res.StreamSNRdB[0]-res.StreamSNRdB[1]) > 3 {
		t.Errorf("stream SNRs should match: %v", res.StreamSNRdB)
	}
	if res.StreamSNRdB[0] < 10 {
		t.Errorf("stream SNR %v too low for this setup", res.StreamSNRdB[0])
	}
}

func BenchmarkMIMOEncodeDecode(b *testing.B) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(500, 1)
	src := rng.New(2)
	tx, _ := c.EncodeMIMO(payload, MCSList()[4])
	rx := applyMIMO(src, identityMIMO(1), tx, 1e-6, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeMIMO(rx); err != nil {
			b.Fatal(err)
		}
	}
}
