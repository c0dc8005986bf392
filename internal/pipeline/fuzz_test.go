package pipeline_test

import (
	"encoding/binary"
	"math"
	"testing"

	"fastforward/internal/dsp"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
)

// FuzzChainSegmentation fuzzes the block-segmentation invariant: a chain
// fed a signal in arbitrary splits must produce bit-identical output to
// one whole-signal call. The split points, signal length, tap count, and
// seed all come from the fuzzer.
func FuzzChainSegmentation(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(24), []byte{3, 60, 17})
	f.Add(int64(7), uint16(1000), uint8(120), []byte{1, 1, 1, 250})
	f.Add(int64(42), uint16(64), uint8(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, nSig uint16, nTaps uint8, splits []byte) {
		n := int(nSig)%2048 + 1
		tl := int(nTaps)%130 + 1
		src := rng.New(seed)
		taps := make([]complex128, tl)
		for i := range taps {
			taps[i] = src.ComplexGaussian(1.0 / float64(tl))
		}
		sig := src.NoiseVector(n, 1.0)
		ref := src.NoiseVector(n, 1.0)
		step := 0.01 * src.Norm()

		build := func() (*pipeline.Chain, *pipeline.CancelStage) {
			cancel := pipeline.NewCancelStage("si_cancel", taps)
			ch := pipeline.NewChain("fuzz.fwd",
				cancel,
				pipeline.NewCFOStage("cfo_remove", -step),
				pipeline.NewFIRStage("cnf_pre", taps),
				pipeline.NewCFOStage("cfo_restore", step),
				pipeline.NewGainStage("amp", complex(1.2, 0)),
				pipeline.NewDelayStage("pipe", 3),
			)
			return ch, cancel
		}

		// Reference: whole signal in one call.
		want := append([]complex128(nil), sig...)
		chW, cW := build()
		cW.SetReference(ref)
		chW.Process(want)

		// Fuzzer-chosen segmentation: must be bit-exact.
		got := append([]complex128(nil), sig...)
		chS, cS := build()
		cS.SetReference(ref)
		pos := 0
		for _, b := range splits {
			if pos >= n {
				break
			}
			size := int(b)%(n-pos) + 1
			chS.Process(got[pos : pos+size])
			pos += size
		}
		if pos < n {
			chS.Process(got[pos:])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segmented chain diverges at sample %d: %v != %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzSoAMatchesPush fuzzes the planar block path against the per-sample
// direct form: a FIR stage and a cancel stage fed a signal in
// fuzzer-chosen segments must reproduce dsp.FIR.Push (and rx − Push(tx))
// bit for bit, compared through math.Float64bits. Taps and samples come
// from a seeded draw that the raw bytes then overwrite, four bytes per
// complex value as two int16s / 256 — exact small values, zeros and sign
// patterns the Gaussian draw would never produce.
func FuzzSoAMatchesPush(f *testing.F) {
	f.Add(int64(1), uint16(4095), uint8(23), []byte{}, []byte{200, 7, 31, 33, 255})
	f.Add(int64(2), uint16(700), uint8(119), []byte{0, 1, 0, 0, 255, 255, 0, 128}, []byte{31, 31, 40, 1})
	f.Add(int64(3), uint16(64), uint8(3), []byte{1, 2, 3, 4}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, nSig uint16, nTaps uint8, raw []byte, splits []byte) {
		n := int(nSig)%4096 + 1
		tl := int(nTaps)%130 + 1
		src := rng.New(seed)
		vals := src.NoiseVector(tl+2*n, 1)
		for i := 0; i+4 <= len(raw) && i/4 < len(vals); i += 4 {
			re := int16(binary.LittleEndian.Uint16(raw[i:]))
			im := int16(binary.LittleEndian.Uint16(raw[i+2:]))
			vals[i/4] = complex(float64(re)/256, float64(im)/256)
		}
		taps, sig, ref := vals[:tl], vals[tl:tl+n], vals[tl+n:]

		fir, canc := dsp.NewFIR(taps), dsp.NewFIR(taps)
		wantF := make([]complex128, n)
		wantC := make([]complex128, n)
		for i := range sig {
			wantF[i] = fir.Push(sig[i])
			wantC[i] = sig[i] - canc.Push(ref[i])
		}

		st := pipeline.NewFIRStage("fir", taps)
		cs := pipeline.NewCancelStage("cancel", taps)
		cs.SetReference(ref)
		gotF := append([]complex128(nil), sig...)
		gotC := append([]complex128(nil), sig...)
		pos := 0
		for _, b := range splits {
			if pos >= n {
				break
			}
			size := int(b)%(n-pos) + 1
			st.Process(gotF[pos : pos+size])
			cs.Process(gotC[pos : pos+size])
			pos += size
		}
		st.Process(gotF[pos:])
		cs.Process(gotC[pos:])

		same := func(a, b complex128) bool {
			return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
				math.Float64bits(imag(a)) == math.Float64bits(imag(b))
		}
		for i := range wantF {
			if !same(gotF[i], wantF[i]) {
				t.Fatalf("FIR stage sample %d = %v, Push oracle %v (bit-exact)", i, gotF[i], wantF[i])
			}
			if !same(gotC[i], wantC[i]) {
				t.Fatalf("cancel stage sample %d = %v, Push oracle %v (bit-exact)", i, gotC[i], wantC[i])
			}
		}
	})
}
