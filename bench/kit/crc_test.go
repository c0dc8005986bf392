package kit

import (
	"testing"

	"fastforward/internal/relayd"
)

// streamThroughFake runs n blocks through a relayd.Client talking to the
// fake daemon and returns the CRC of what the client read back.
func streamThroughFake(t *testing.T, fake *fakeDaemon, p relayd.SessionParams, in Blocks, n int) uint32 {
	t.Helper()
	c, err := relayd.NewClientConnTimeout(fake, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, p.BlockSamples)
	var crc StreamCRC
	for j := 0; j < n; j++ {
		rx, ref := in.At(j)
		if err := c.Process(out, rx, ref); err != nil {
			t.Fatal(err)
		}
		crc.Add(out)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != uint64(n) {
		t.Fatalf("STATS counted %d blocks, want %d", st.Blocks, n)
	}
	return crc.Sum()
}

func TestCRCGate(t *testing.T) {
	const (
		block = 256
		n     = 10
		ampDB = 12.5
	)
	p := testParams(block)
	in := SeededBlocks(11, 3, block) // fewer inputs than blocks: the stream cycles
	want := ReplayCRC(p, ampDB, in, n)

	if got := streamThroughFake(t, newFakeDaemon(ampDB), p, in, n); got != want {
		t.Fatalf("clean stream CRC %08x, replay %08x", got, want)
	}
	bad := newFakeDaemon(ampDB)
	bad.corruptBlock = 7
	if got := streamThroughFake(t, bad, p, in, n); got == want {
		t.Fatal("a corrupted OUT block passed the CRC gate")
	}
	if got := ReplayCRC(p, ampDB+1, in, n); got == want {
		t.Fatal("a replay with another amplification grant matched")
	}
}
