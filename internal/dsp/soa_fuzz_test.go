package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSoARoundTrip fuzzes the SoA conversion boundary: any byte string
// reinterpreted as float64 components — including NaNs with arbitrary
// payloads, infinities, and odd lengths — must come out of Deinterleave
// bit for bit as real(x[i]) and imag(x[i]). Every body the host
// supports runs every prefix that ends in a different n%8 tail, into
// destinations 0 to 7 floats past a 64-byte boundary, and must not write
// past them. The conversion is the trust boundary of the planar FIR: if
// it altered even a NaN payload, the planar path could no longer claim
// the direct form's semantics.
func FuzzSoARoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	seed := make([]byte, 5*16)
	binary.LittleEndian.PutUint64(seed[0:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(seed[8:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(seed[16:], math.Float64bits(math.Inf(-1)))
	binary.LittleEndian.PutUint64(seed[24:], math.Float64bits(0))
	binary.LittleEndian.PutUint64(seed[32:], 0x7ff8dead_beef0001) // NaN payload
	binary.LittleEndian.PutUint64(seed[40:], math.Float64bits(1.5))
	f.Add(seed)
	// 19 samples: long enough for the eight-wide body, with NaN payloads
	// in both components.
	long := make([]byte, 19*16)
	for i := 0; i < len(long); i += 8 {
		binary.LittleEndian.PutUint64(long[i:], 0x7ff0_0000_0000_0001+uint64(i)*0x1_0001)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		x := make([]complex128, n)
		for i := 0; i < n; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			x[i] = complex(re, im)
		}
		const guard = 0x7ff4_0000_0000_0bad // a NaN no input here holds
		forEachBody(func(body string) {
			for m := n; m >= 0 && m > n-8; m-- {
				for off := 0; off < 8; off++ {
					re, im := alignedFloats(m+1, off), alignedFloats(m+1, off)
					re[m], im[m] = math.Float64frombits(guard), math.Float64frombits(guard)
					Deinterleave(re[:m], im[:m], x[:m])
					for i, v := range x[:m] {
						gr, gi := math.Float64bits(re[i]), math.Float64bits(im[i])
						wr, wi := math.Float64bits(real(v)), math.Float64bits(imag(v))
						if gr != wr || gi != wi {
							t.Fatalf("%s body, n=%d, offset %d: sample %d split to (%#x,%#x), want (%#x,%#x)",
								body, m, off, i, gr, gi, wr, wi)
						}
					}
					if math.Float64bits(re[m]) != guard || math.Float64bits(im[m]) != guard {
						t.Fatalf("%s body, n=%d, offset %d: Deinterleave wrote past its planes", body, m, off)
					}
				}
			}
		})
	})
}
