package relayd

import (
	"testing"

	"fastforward/internal/golden"
	"fastforward/internal/rng"
)

// goldenStride is the spacing of the output samples the chain goldens
// pin. Each block's energy is pinned too, so a drift anywhere in a block
// moves a value even between pinned samples.
const goldenStride = 31

// pinBlock records every goldenStride-th sample of out and its energy
// under prefix.
func pinBlock(got map[string]float64, prefix string, out []complex128) {
	var e float64
	for i, v := range out {
		e += real(v)*real(v) + imag(v)*imag(v)
		if i%goldenStride == 0 || i == len(out)-1 {
			got[golden.Key(prefix, i, "re")] = real(v)
			got[golden.Key(prefix, i, "im")] = imag(v)
		}
	}
	got[golden.Key(prefix, "energy")] = e
}

// TestBuildSessionChainGolden pins the served chain's output bits: the
// chain BuildSessionChain returns for a fixed HELLO at two grants, driven
// in blocks of 4096 and 37 samples (the planar block kernels) and of one
// sample (the direct form). The daemon-vs-solo checks compare two chains
// from the same builder; this one holds the builder itself to a recorded
// baseline. Re-baseline with -update.
func TestBuildSessionChainGolden(t *testing.T) {
	p := SessionParams{
		SampleRateHz: 20e6, BlockSamples: 4096, CancelTaps: 24, CNFTaps: 16,
		CFOHz: 1500, Seed: 11,
	}
	blocks := []int{4096, 37, 1}
	got := map[string]float64{}
	for g, ampDB := range []float64{10, 23.5} {
		ch, cancel := BuildSessionChain(p, ampDB)
		src := rng.New(99)
		for b, n := range blocks {
			tx := src.NoiseVector(n, 1)
			rx := src.NoiseVector(n, 1)
			cancel.SetReference(tx)
			pinBlock(got, golden.Key("grant", g, "block", b), ch.Process(rx))
		}
	}
	golden.Check(t, "testdata/session_chain_golden.json", got)
}
