package kit

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"fastforward/internal/relayd"
	"fastforward/internal/rng"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StreamCRC is a running CRC-32C over a session's output blocks, taken
// over each sample as little-endian float64 (re, im) — the bytes an OUT
// frame carries — so equal CRCs mean bit-identical output.
type StreamCRC struct {
	sum uint32
	buf []byte
}

// Add folds one block into the CRC.
func (c *StreamCRC) Add(block []complex128) {
	n := len(block) * relayd.SampleBytes
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	b := c.buf[:n]
	for i, v := range block {
		binary.LittleEndian.PutUint64(b[i*16:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[i*16+8:], math.Float64bits(imag(v)))
	}
	c.sum = crc32.Update(c.sum, castagnoli, b)
}

// Sum returns the CRC so far.
func (c *StreamCRC) Sum() uint32 { return c.sum }

// Blocks is a seeded pool of input blocks — received samples and the
// transmit reference — that a session cycles through.
type Blocks struct {
	rx, ref [][]complex128
}

// SeededBlocks draws k blocks of n unit-power noise samples from seed.
func SeededBlocks(seed int64, k, n int) Blocks {
	src := rng.New(seed)
	b := Blocks{rx: make([][]complex128, k), ref: make([][]complex128, k)}
	for i := range b.rx {
		b.rx[i] = src.NoiseVector(n, 1)
		b.ref[i] = src.NoiseVector(n, 1)
	}
	return b
}

// At returns the j-th block of the session's stream.
func (b Blocks) At(j int) (rx, ref []complex128) {
	i := j % len(b.rx)
	return b.rx[i], b.ref[i]
}

// ReplayCRC runs the first n blocks of in through the chain the daemon
// builds for an admitted session (relayd.BuildSessionChain with the
// granted amplification) and returns the CRC of the outputs.
func ReplayCRC(p relayd.SessionParams, ampDB float64, in Blocks, n int) uint32 {
	chain, cancel := relayd.BuildSessionChain(p, ampDB)
	work := make([]complex128, p.BlockSamples)
	var crc StreamCRC
	for j := 0; j < n; j++ {
		rx, ref := in.At(j)
		copy(work, rx)
		cancel.SetReference(ref)
		crc.Add(chain.Process(work))
	}
	return crc.Sum()
}
