package wifi

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fastforward/internal/channel"
	"fastforward/internal/dsp"
	"fastforward/internal/golden"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
)

// waveHash is an FNV-1a hash of the Float64bits of every sample's real and
// imaginary parts, cut to 53 bits so a golden vector holds it exactly.
func waveHash(ants ...[]complex128) float64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range ants {
		for _, v := range a {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return float64(h.Sum64() & (1<<53 - 1))
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestCodecGolden pins, for every MCS, the exact waveforms of the one- and
// two-stream frames and what the receivers report after a fixed noisy
// multipath SISO channel and a fixed cross-coupled 2×2 channel, both with
// a carrier frequency offset.
func TestCodecGolden(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(100, 21)
	siso := &channel.SISO{Taps: []complex128{0.9, 0.3 - 0.2i, 0.1i}, Delay: 2}
	mimo := channel.NewMIMO(2, 2)
	mimo.Links[0][0] = &channel.SISO{Taps: []complex128{0.8, 0.1i}}
	mimo.Links[0][1] = channel.NewFlat(0.3i)
	mimo.Links[1][0] = channel.NewFlat(-0.25)
	mimo.Links[1][1] = &channel.SISO{Taps: []complex128{0.7 + 0.1i, -0.05}}
	got := map[string]float64{}
	for _, m := range MCSList() {
		src := rng.New(int64(100 + m.Index))
		key := func(parts ...interface{}) string {
			return golden.Key(append([]interface{}{"mcs", m.Index}, parts...)...)
		}

		tx, err := c.Encode(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		got[key("siso", "len")] = float64(len(tx))
		got[key("siso", "hash")] = waveHash(tx)
		air, _ := dsp.ApplyCFO(tx, 40e3, 20e6, 0.2)
		air = append(append(make([]complex128, 100), air...), make([]complex128, 64)...)
		rx := channel.AWGN(src, siso.Apply(air), 1e-3)
		res, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("%v: SISO decode: %v", m, err)
		}
		got[key("siso", "snr_db")] = res.SNRdB
		got[key("siso", "cfo_hz")] = res.CFOHz
		got[key("siso", "start")] = float64(res.StartIndex)
		got[key("siso", "fcs_ok")] = boolF(res.FCSOK)

		txm, err := c.EncodeMIMO(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		got[key("mimo", "len")] = float64(len(txm[0]))
		got[key("mimo", "hash")] = waveHash(txm...)
		for i := range txm {
			txm[i], _ = dsp.ApplyCFO(txm[i], 25e3, 20e6, 0.4)
		}
		resM, err := c.DecodeMIMO(applyMIMO(src, mimo, txm, 1e-4, 100))
		if err != nil {
			t.Fatalf("%v: 2x2 decode: %v", m, err)
		}
		got[key("mimo", "snr_db", 0)] = resM.StreamSNRdB[0]
		got[key("mimo", "snr_db", 1)] = resM.StreamSNRdB[1]
		got[key("mimo", "cfo_hz")] = resM.CFOHz
		got[key("mimo", "start")] = float64(resM.StartIndex)
		got[key("mimo", "fcs_ok")] = boolF(resM.FCSOK)
	}
	golden.Check(t, "testdata/codec_golden.json", got)
}
