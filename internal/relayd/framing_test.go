package relayd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"fastforward/internal/rng"
)

// writeLog is a net.Conn that records every Write made on it.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *writeLog) log() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// wireFrame is a frame as the protocol lays it out, built independently
// of writeFrame: [payload length BE32][type][payload].
func wireFrame(typ byte, payload []byte) []byte {
	return append(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), typ), payload...)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkWrites asserts that side made exactly one Write per frame, each
// carrying exactly the wanted frame's bytes.
func checkWrites(t *testing.T, side string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s made %d writes, want %d (one per frame)", side, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s write %d:\n got % x\nwant % x", side, i, got[i], want[i])
		}
	}
}

// TestOneWritePerFrame pins the write side of the framing: every frame
// type either end sends goes out as exactly one Write, whose bytes are
// the frame's [length][type][payload], byte for byte.
func TestOneWritePerFrame(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	serve := func() (client, daemon *writeLog) {
		cs, ss := net.Pipe()
		client, daemon = &writeLog{Conn: cs}, &writeLog{Conn: ss}
		go srv.ServeConn(daemon)
		return client, daemon
	}

	t.Run("session", func(t *testing.T) {
		p := testParams(5)
		client, daemon := serve()
		c, err := NewClientConnTimeout(client, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := p.BlockSamples
		src := rng.New(51)
		rx, ref := src.NoiseVector(n, 1), src.NoiseVector(n, 1)
		data := make([]byte, 2*n*SampleBytes)
		samplesToBytes(data[:n*SampleBytes], rx)
		samplesToBytes(data[n*SampleBytes:], ref)
		out := make([]complex128, n)
		if err := c.Process(out, rx, ref); err != nil {
			t.Fatal(err)
		}
		outBytes := make([]byte, n*SampleBytes)
		samplesToBytes(outBytes, out)
		st, err := c.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkWrites(t, "client", client.log(), [][]byte{
			wireFrame(FrameHello, mustJSON(t, p)),
			wireFrame(FrameData, data),
			wireFrame(FrameDone, nil),
		})
		checkWrites(t, "daemon", daemon.log(), [][]byte{
			wireFrame(FrameAccept, mustJSON(t, c.Accept())),
			wireFrame(FrameOut, outBytes),
			wireFrame(FrameStats, mustJSON(t, st)),
		})
	})

	t.Run("query", func(t *testing.T) {
		client, daemon := serve()
		ic := newInfoClient(client, 0)
		defer ic.Close()
		info, err := ic.Query()
		if err != nil {
			t.Fatal(err)
		}
		checkWrites(t, "client", client.log(), [][]byte{wireFrame(FrameQuery, nil)})
		checkWrites(t, "daemon", daemon.log(), [][]byte{wireFrame(FrameInfo, mustJSON(t, info))})
	})

	t.Run("refuse", func(t *testing.T) {
		p := testParams(6)
		p.BlockSamples = 0
		client, daemon := serve()
		_, err := NewClientConnTimeout(client, p, 0)
		var ref *Refuse
		if !errors.As(err, &ref) || ref.Code != RefuseBadHello {
			t.Fatalf("NewClientConnTimeout = %v, want a %s refusal", err, RefuseBadHello)
		}
		checkWrites(t, "client", client.log(), [][]byte{wireFrame(FrameHello, mustJSON(t, p))})
		checkWrites(t, "daemon", daemon.log(), [][]byte{
			wireFrame(FrameRefuse, mustJSON(t, Refuse{Code: ref.Code, Detail: ref.Detail})),
		})
	})
}

// TestPreAdmissionFrameCap: a peer that has not been admitted cannot make
// the daemon allocate what its frame header declares. Eight connections
// each send only a header declaring a 16 MiB HELLO; the daemon must
// close each at once (well inside its 10 s read timeout), count an I/O
// error for each, and allocate less than 1 MiB doing so.
func TestPreAdmissionFrameCap(t *testing.T) {
	srv, reg := newTestServer(t, DefaultConfig())
	hdr := []byte{0x00, 0xFF, 0xFF, 0xFF, FrameHello}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		cs, ss := net.Pipe()
		served := make(chan struct{})
		go func() {
			srv.ServeConn(ss)
			close(served)
		}()
		if err := cs.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Write(hdr); err != nil {
			t.Fatalf("conn %d: write header: %v", i, err)
		}
		if _, err := cs.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("conn %d: read = %v, want io.EOF (the daemon closes the conn at once)", i, err)
		}
		<-served
		cs.Close()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("eight oversized headers allocated %d bytes, want < 1 MiB", got)
	}
	if got := reg.Counter("relayd.io_errors", "errors").Value(); got != 8 {
		t.Fatalf("relayd.io_errors = %v, want 8", got)
	}
}

// TestOversizedDataFrameRefused: an admitted session whose DATA header
// declares one byte more than its window is refused with code protocol
// as soon as the header arrives, and counts one I/O error.
func TestOversizedDataFrameRefused(t *testing.T) {
	srv, reg := newTestServer(t, DefaultConfig())
	p := testParams(9)
	c, err := pipeSession(srv, p)
	if err != nil {
		t.Fatal(err)
	}
	hdr := append(binary.BigEndian.AppendUint32(nil, uint32(2*p.BlockSamples*SampleBytes+1)), FrameData)
	if _, err := c.conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(c.br)
	var ref Refuse
	if err != nil || typ != FrameRefuse || json.Unmarshal(payload, &ref) != nil || ref.Code != RefuseProtocol {
		t.Fatalf("got frame type %d (%s), err %v; want REFUSE with code %s", typ, payload, err, RefuseProtocol)
	}
	waitFor(t, "relayd.io_errors", func() bool { return reg.Counter("relayd.io_errors", "errors").Value() == 1 })
}

// TestHelloAndDataInOneWrite: a client that sends HELLO and its first
// DATA frame in one write, before ACCEPT, is served bit-exactly. The
// daemon reads the DATA bytes it buffered before admission first when it
// re-windows the connection, whether the session's window is smaller
// than the control window (64 samples) or larger (1024).
func TestHelloAndDataInOneWrite(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	for _, n := range []int{64, 1024} {
		p := testParams(int64(60 + n))
		p.BlockSamples = n
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		src := rng.New(p.Seed)
		frameOf := func(rx, ref []complex128) []byte {
			f := make([]byte, frameHeaderLen+2*n*SampleBytes)
			samplesToBytes(f[frameHeaderLen:frameHeaderLen+n*SampleBytes], rx)
			samplesToBytes(f[frameHeaderLen+n*SampleBytes:], ref)
			return f
		}
		var wire bytes.Buffer
		if err := writeJSONFrame(&wire, FrameHello, p); err != nil {
			t.Fatal(err)
		}
		rx := [][]complex128{src.NoiseVector(n, 1), src.NoiseVector(n, 1)}
		ref := [][]complex128{src.NoiseVector(n, 1), src.NoiseVector(n, 1)}
		if err := writeFrame(&wire, FrameData, frameOf(rx[0], ref[0])); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire.Bytes()); err != nil {
			t.Fatal(err)
		}

		br := bufio.NewReaderSize(conn, max(controlWindow, frameHeaderLen+n*SampleBytes))
		typ, payload, err := readFrame(br)
		if err != nil || typ != FrameAccept {
			t.Fatalf("n=%d: handshake frame type %d, err %v; want ACCEPT", n, typ, err)
		}
		var acc Accept
		if err := json.Unmarshal(payload, &acc); err != nil {
			t.Fatal(err)
		}
		solo, soloCancel := BuildSessionChain(p, acc.AmpDB)
		out := make([]complex128, n)
		for b := range rx {
			if b > 0 {
				if err := writeFrame(conn, FrameData, frameOf(rx[b], ref[b])); err != nil {
					t.Fatal(err)
				}
			}
			typ, payload, err := readFrame(br)
			if err != nil || typ != FrameOut {
				t.Fatalf("n=%d block %d: frame type %d, err %v; want OUT", n, b, typ, err)
			}
			bytesToSamples(out, payload)
			soloCancel.SetReference(ref[b])
			want := solo.Process(append([]complex128(nil), rx[b]...))
			for j := range want {
				if out[j] != want[j] {
					t.Fatalf("n=%d block %d sample %d: daemon %v, solo %v (bit-exact required)", n, b, j, out[j], want[j])
				}
			}
		}
		if err := writeFrame(conn, FrameDone, make([]byte, frameHeaderLen)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err = readFrame(br)
		var st Stats
		if err != nil || typ != FrameStats || json.Unmarshal(payload, &st) != nil || st.Blocks != 2 {
			t.Fatalf("n=%d: close got frame type %d (%s), err %v; want STATS with 2 blocks", n, typ, payload, err)
		}
	}
}

// BenchmarkServedRoundTrip times one served block round trip,
// Client.Process against a Server over loopback TCP, at 64 samples (the
// per-frame cost of the served path) and at 4096 (the block serve-4096
// serves, where the codec and the chain dominate). make bench-allocs
// requires 0 allocs/op at both, daemon side included.
func BenchmarkServedRoundTrip(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) { benchServedRoundTrip(b, n) })
	}
}

func benchServedRoundTrip(b *testing.B, n int) {
	cfg := DefaultConfig()
	srv := New(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	p := testParams(1)
	p.BlockSamples = n
	c, err := DialTimeout(ln.Addr().String(), p, nil, 1, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	rx, ref := src.NoiseVector(p.BlockSamples, 1), src.NoiseVector(p.BlockSamples, 1)
	out := make([]complex128, p.BlockSamples)
	for i := 0; i < 100; i++ { // warm the conns, buffers and chain
		if err := c.Process(out, rx, ref); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Process(out, rx, ref); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := c.Close(); err != nil {
		b.Fatal(err)
	}
}
