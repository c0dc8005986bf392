package wifi

import (
	"bytes"
	"math"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/ofdm"
	"fastforward/internal/rng"
)

func testPayload(n int, seed int64) []byte {
	s := rng.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(s.Intn(256))
	}
	return b
}

func TestMCSTable(t *testing.T) {
	p := ofdm.Default20MHz()
	list := MCSList()
	if len(list) != 10 {
		t.Fatalf("MCS table has %d entries", len(list))
	}
	// Rates must be strictly increasing with index.
	prev := 0.0
	for _, m := range list {
		r := m.PHYRateMbps(p, 1)
		if r <= prev {
			t.Errorf("%v rate %v not increasing", m, r)
		}
		prev = r
	}
	// MCS0: BPSK 1/2 over 52 data carriers: 26 bits / 3.6us = 7.22 Mbps.
	r0 := list[0].PHYRateMbps(p, 1)
	if math.Abs(r0-26.0/3.6) > 1e-9 {
		t.Errorf("MCS0 rate %v, want %v", r0, 26.0/3.6)
	}
	// MCS8 (256-QAM 3/4) needs 28 dB, the paper's quoted max.
	if list[8].MinSNRdB != 28 {
		t.Errorf("MCS8 threshold %v, want 28", list[8].MinSNRdB)
	}
	// 2 streams double the rate.
	if got := list[5].PHYRateMbps(p, 2); math.Abs(got-2*list[5].PHYRateMbps(p, 1)) > 1e-9 {
		t.Error("2-stream rate is not double")
	}
}

func TestHighestMCSForSNR(t *testing.T) {
	if _, ok := HighestMCSForSNR(0); ok {
		t.Error("0 dB should not sustain any MCS")
	}
	m, ok := HighestMCSForSNR(2)
	if !ok || m.Index != 0 {
		t.Errorf("2 dB -> %v, want MCS0", m)
	}
	m, ok = HighestMCSForSNR(19)
	if !ok || m.Index != 5 {
		t.Errorf("19 dB -> %v, want MCS5", m)
	}
	m, ok = HighestMCSForSNR(100)
	if !ok || m.Index != 9 {
		t.Errorf("100 dB -> %v, want MCS9", m)
	}
}

func TestMaxSupportedRate(t *testing.T) {
	p := ofdm.Default20MHz()
	if r := MaxSupportedRateMbps(p, -5, 2); r != 0 {
		t.Errorf("below sensitivity rate = %v, want 0", r)
	}
	if r := MaxSupportedRateMbps(p, 30, 2); r <= MaxSupportedRateMbps(p, 12, 2) {
		t.Error("higher SNR should never reduce rate")
	}
}

func TestEncodeProducesUnitPower(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	wave, err := c.Encode(testPayload(200, 1), MCSList()[3])
	if err != nil {
		t.Fatal(err)
	}
	if p := dsp.Power(wave); math.Abs(p-1) > 1e-9 {
		t.Errorf("frame power %v, want 1", p)
	}
}

func TestCleanRoundTripAllMCS(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(300, 2)
	for _, m := range MCSList() {
		wave, err := c.Encode(payload, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// Surround with silence so detection has to work.
		rx := make([]complex128, 0, len(wave)+300)
		rx = append(rx, make([]complex128, 150)...)
		rx = append(rx, wave...)
		rx = append(rx, make([]complex128, 150)...)
		res, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("%v: decode: %v", m, err)
		}
		if !res.FCSOK {
			t.Fatalf("%v: FCS failed on clean channel", m)
		}
		if !bytes.Equal(res.Payload, payload) {
			t.Fatalf("%v: payload mismatch", m)
		}
		if res.MCS.Index != m.Index {
			t.Fatalf("%v: SIG decoded MCS %d", m, res.MCS.Index)
		}
	}
}

func TestRoundTripWithNoise(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	noise := rng.New(3)
	payload := testPayload(100, 4)
	// Each MCS at 6 dB above threshold must decode.
	for _, m := range MCSList() {
		wave, _ := c.Encode(payload, m)
		snr := dsp.Linear(m.MinSNRdB + 6)
		rx := dsp.Add(wave, noise.NoiseVector(len(wave), 1/snr))
		res, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("%v at %v dB: %v", m, m.MinSNRdB+6, err)
		}
		if !res.FCSOK {
			t.Fatalf("%v at %.0f dB SNR: FCS failed", m, m.MinSNRdB+6)
		}
	}
}

func TestRoundTripWithCFO(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(120, 5)
	wave, _ := c.Encode(payload, MCSList()[4])
	for _, cfo := range []float64{-120e3, 37e3, 200e3} {
		rx, _ := dsp.ApplyCFO(wave, cfo, 20e6, 0.7)
		res, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("CFO %v: %v", cfo, err)
		}
		if !res.FCSOK {
			t.Fatalf("CFO %v Hz: FCS failed", cfo)
		}
		if math.Abs(res.CFOHz-cfo) > 300 {
			t.Errorf("CFO estimate %v, want %v", res.CFOHz, cfo)
		}
	}
}

func TestRoundTripMultipath(t *testing.T) {
	// A frequency-selective channel within the CP must be equalized away.
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(150, 6)
	wave, _ := c.Encode(payload, MCSList()[4])
	taps := []complex128{0.7, 0, 0.35i, 0.1, 0, -0.15}
	noise := rng.New(7)
	rx := dsp.FilterSame(wave, taps)
	rx = dsp.Add(rx, noise.NoiseVector(len(rx), dsp.Power(rx)/dsp.Linear(30)))
	res, err := c.Decode(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FCSOK {
		t.Fatal("FCS failed over multipath channel")
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload corrupted over multipath channel")
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(80, 8)
	wave, _ := c.Encode(payload, MCSList()[7]) // fragile MCS
	noise := rng.New(9)
	// 5 dB below threshold: essentially guaranteed bit errors.
	rx := dsp.Add(wave, noise.NoiseVector(len(wave), 1/dsp.Linear(MCSList()[7].MinSNRdB-5)))
	res, err := c.Decode(rx)
	if err != nil {
		// SIG failure is an acceptable form of detected corruption.
		return
	}
	if res.FCSOK && !bytes.Equal(res.Payload, payload) {
		t.Fatal("FCS passed on corrupted payload")
	}
}

func TestLowSNRFailsHighMCSPassesLowMCS(t *testing.T) {
	// The MCS thresholds should be real: at 10 dB, MCS1 decodes and MCS7
	// does not (statistically: use several trials).
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(100, 10)
	noise := rng.New(11)
	trials := 5
	lowOK, highOK := 0, 0
	for i := 0; i < trials; i++ {
		waveLow, _ := c.Encode(payload, MCSList()[1])
		rx := dsp.Add(waveLow, noise.NoiseVector(len(waveLow), 1/dsp.Linear(10)))
		if res, err := c.Decode(rx); err == nil && res.FCSOK {
			lowOK++
		}
		waveHigh, _ := c.Encode(payload, MCSList()[7])
		rx = dsp.Add(waveHigh, noise.NoiseVector(len(waveHigh), 1/dsp.Linear(10)))
		if res, err := c.Decode(rx); err == nil && res.FCSOK {
			highOK++
		}
	}
	if lowOK != trials {
		t.Errorf("MCS1 at 10dB decoded %d/%d", lowOK, trials)
	}
	if highOK != 0 {
		t.Errorf("MCS7 at 10dB decoded %d/%d, expected 0", highOK, trials)
	}
}

func TestSNREstimateTracksTruth(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(60, 12)
	noise := rng.New(13)
	for _, snrDB := range []float64{10, 20, 30} {
		wave, _ := c.Encode(payload, MCSList()[0])
		rx := dsp.Add(wave, noise.NoiseVector(len(wave), 1/dsp.Linear(snrDB)))
		res, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("snr %v: %v", snrDB, err)
		}
		// Post-FFT subcarrier SNR differs from the sample-domain setting by
		// the used-carrier fraction; allow generous tolerance.
		if math.Abs(res.SNRdB-snrDB) > 4 {
			t.Errorf("SNR estimate %v, want ~%v", res.SNRdB, snrDB)
		}
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	c := NewCodec(ofdm.Default20MHz())
	if _, err := c.Encode(make([]byte, maxPayload), MCSList()[0]); err == nil {
		t.Error("oversized payload accepted")
	}
}

func BenchmarkEncodeMCS4(b *testing.B) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(500, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(payload, MCSList()[4]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeMCS4(b *testing.B) {
	c := NewCodec(ofdm.Default20MHz())
	payload := testPayload(500, 1)
	wave, _ := c.Encode(payload, MCSList()[4])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(wave); err != nil {
			b.Fatal(err)
		}
	}
}
