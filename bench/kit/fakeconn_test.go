package kit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"time"

	"fastforward/internal/pipeline"
	"fastforward/internal/relayd"
)

// fakeDaemon is a net.Conn that plays the daemon's side of one session
// in the caller's goroutine: each complete frame the client writes is
// answered at once into the read buffer — HELLO with ACCEPT, DATA with
// the OUT block a solo session chain computes, DONE with STATS. delay
// stalls every DATA answer; corruptBlock flips one bit of that block's
// OUT payload.
type fakeDaemon struct {
	ampDB        float64
	delay        time.Duration
	corruptBlock int

	in, out bytes.Buffer
	p       relayd.SessionParams
	chain   *pipeline.Chain
	cancel  *pipeline.CancelStage
	blocks  int
}

func newFakeDaemon(ampDB float64) *fakeDaemon {
	return &fakeDaemon{ampDB: ampDB, corruptBlock: -1}
}

func (f *fakeDaemon) Read(b []byte) (int, error) { return f.out.Read(b) }

func (f *fakeDaemon) Write(b []byte) (int, error) {
	f.in.Write(b)
	for f.in.Len() >= 5 {
		hdr := f.in.Bytes()[:5]
		n := int(binary.BigEndian.Uint32(hdr[:4]))
		if f.in.Len() < 5+n {
			break
		}
		typ := hdr[4]
		frame := make([]byte, 5+n)
		f.in.Read(frame)
		f.answer(typ, frame[5:])
	}
	return len(b), nil
}

func (f *fakeDaemon) answer(typ byte, payload []byte) {
	switch typ {
	case relayd.FrameHello:
		if err := json.Unmarshal(payload, &f.p); err != nil {
			panic(err)
		}
		f.chain, f.cancel = relayd.BuildSessionChain(f.p, f.ampDB)
		f.send(relayd.FrameAccept, mustJSON(relayd.Accept{SessionID: 1, AmpDB: f.ampDB, AmpBound: "pa"}))
	case relayd.FrameData:
		time.Sleep(f.delay)
		n := f.p.BlockSamples
		rx, ref := decodeSamples(payload[:n*relayd.SampleBytes]), decodeSamples(payload[n*relayd.SampleBytes:])
		f.cancel.SetReference(ref)
		out := encodeSamples(f.chain.Process(rx))
		if f.blocks == f.corruptBlock {
			out[3] ^= 1
		}
		f.blocks++
		f.send(relayd.FrameOut, out)
	case relayd.FrameDone:
		f.send(relayd.FrameStats, mustJSON(relayd.Stats{SessionID: 1, Blocks: uint64(f.blocks)}))
	}
}

func (f *fakeDaemon) send(typ byte, payload []byte) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	f.out.Write(hdr[:])
	f.out.Write(payload)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func decodeSamples(b []byte) []complex128 {
	s := make([]complex128, len(b)/relayd.SampleBytes)
	for i := range s {
		s[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:])))
	}
	return s
}

func encodeSamples(s []complex128) []byte {
	b := make([]byte, len(s)*relayd.SampleBytes)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(imag(v)))
	}
	return b
}

func (f *fakeDaemon) Close() error                     { return nil }
func (f *fakeDaemon) LocalAddr() net.Addr              { return fakeAddr{} }
func (f *fakeDaemon) RemoteAddr() net.Addr             { return fakeAddr{} }
func (f *fakeDaemon) SetDeadline(time.Time) error      { return nil }
func (f *fakeDaemon) SetReadDeadline(time.Time) error  { return nil }
func (f *fakeDaemon) SetWriteDeadline(time.Time) error { return nil }

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// testParams is a small served session for the fake daemon.
func testParams(block int) relayd.SessionParams {
	return relayd.SessionParams{SampleRateHz: 20e6, BlockSamples: block, CancelTaps: 24, CNFTaps: 16,
		CFOHz: 1500, Seed: 7, CancellationDB: 85, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 30}
}
