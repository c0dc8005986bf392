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

func mustJSON(t testing.TB, v any) []byte {
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
		data := append(samplesToBytesGo(rx), samplesToBytesGo(ref)...)
		out := make([]complex128, n)
		if err := c.Process(out, rx, ref); err != nil {
			t.Fatal(err)
		}
		outBytes := samplesToBytesGo(out)
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
// declares any length but exactly its block's 32n bytes is refused with
// code protocol as soon as the header arrives, with no payload byte
// sent, and counts one I/O error.
func TestOversizedDataFrameRefused(t *testing.T) {
	p := testParams(9)
	want := 2 * p.BlockSamples * SampleBytes
	for _, size := range []int{want + 1, want - 32, 0, want + 32} {
		t.Run(strconv.Itoa(size), func(t *testing.T) {
			srv, reg := newTestServer(t, DefaultConfig())
			c, err := pipeSession(srv, p)
			if err != nil {
				t.Fatal(err)
			}
			defer c.conn.Close()
			if err := c.conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			hdr := append(binary.BigEndian.AppendUint32(nil, uint32(size)), FrameData)
			if _, err := c.conn.Write(hdr); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := readFrame(c.br)
			var ref Refuse
			if err != nil || typ != FrameRefuse || json.Unmarshal(payload, &ref) != nil || ref.Code != RefuseProtocol {
				t.Fatalf("got frame type %d (%s), err %v; want REFUSE with code %s", typ, payload, err, RefuseProtocol)
			}
			waitFor(t, "the session to end", func() bool { return srv.Sessions() == 0 })
			if got := reg.Counter("relayd.io_errors", "errors").Value(); got != 1 {
				t.Fatalf("relayd.io_errors = %v, want 1", got)
			}
		})
	}
}

// readOut reads one OUT frame of n samples through br, its payload
// straight into out, and fails the test on any other frame.
func readOut(t *testing.T, br *bufio.Reader, out []complex128) {
	t.Helper()
	typ, size, err := readHeader(br, FrameOut, len(out)*SampleBytes)
	if err != nil || typ != FrameOut {
		t.Fatalf("frame type %d of %d bytes, err %v; want OUT of %d samples", typ, size, err, len(out))
	}
	if _, err := io.ReadFull(br, sampleBytes(out)); err != nil {
		t.Fatal(err)
	}
	wireOrder(out)
}

// dataFrame is a DATA frame of rx then ref, built independently of the
// sample memory.
func dataFrame(rx, ref []complex128) []byte {
	return wireFrame(FrameData, append(samplesToBytesGo(rx), samplesToBytesGo(ref)...))
}

// checkSolo asserts that the daemon's OUT blocks for rx and ref are what
// a solo chain built at the granted amplification computes, bit for bit.
func checkSolo(t *testing.T, p SessionParams, ampDB float64, rx, ref, outs [][]complex128) {
	t.Helper()
	solo, soloCancel := BuildSessionChain(p, ampDB)
	for b := range rx {
		soloCancel.SetReference(ref[b])
		want := solo.Process(append([]complex128(nil), rx[b]...))
		if !sameSamples(outs[b], want) {
			t.Fatalf("n=%d block %d: daemon output differs from the solo chain (bit-exact required)", p.BlockSamples, b)
		}
	}
}

// readStats reads the STATS frame that closes a session and checks its
// block count.
func readStats(t *testing.T, br *bufio.Reader, blocks uint64) {
	t.Helper()
	typ, payload, err := readFrame(br)
	var st Stats
	if err != nil || typ != FrameStats || json.Unmarshal(payload, &st) != nil || st.Blocks != blocks {
		t.Fatalf("close got frame type %d (%s), err %v; want STATS with %d blocks", typ, payload, err, blocks)
	}
}

// TestHelloAndDataInOneWrite: a client that sends HELLO and its first
// DATA frame in one write, before ACCEPT, is served bit-exactly. The
// daemon's reader has buffered the start of that DATA frame with the
// HELLO; its payload is read through the same reader, whether the frame
// is smaller than the reader's buffer (64 samples) or larger (1024 and
// 4096).
func TestHelloAndDataInOneWrite(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	for _, n := range []int{64, 1024, 4096} {
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
		rx := [][]complex128{src.NoiseVector(n, 1), src.NoiseVector(n, 1)}
		ref := [][]complex128{src.NoiseVector(n, 1), src.NoiseVector(n, 1)}
		if _, err := conn.Write(append(wireFrame(FrameHello, mustJSON(t, p)), dataFrame(rx[0], ref[0])...)); err != nil {
			t.Fatal(err)
		}

		br := bufio.NewReaderSize(conn, controlWindow)
		typ, payload, err := readFrame(br)
		if err != nil || typ != FrameAccept {
			t.Fatalf("n=%d: handshake frame type %d, err %v; want ACCEPT", n, typ, err)
		}
		var acc Accept
		if err := json.Unmarshal(payload, &acc); err != nil {
			t.Fatal(err)
		}
		outs := [][]complex128{make([]complex128, n), make([]complex128, n)}
		readOut(t, br, outs[0])
		if _, err := conn.Write(dataFrame(rx[1], ref[1])); err != nil {
			t.Fatal(err)
		}
		readOut(t, br, outs[1])
		checkSolo(t, p, acc.AmpDB, rx, ref, outs)
		if _, err := conn.Write(wireFrame(FrameDone, nil)); err != nil {
			t.Fatal(err)
		}
		readStats(t, br, 2)
	}
}

// TestPipelinedFrames: after ACCEPT, a client sends DATA, DATA and DONE
// in one write. The daemon's reader buffers bytes past each header it
// reads — the start of a payload, or the next frame whole — and each
// payload must be read through that reader, not from the conn past it:
// both OUTs must match the solo chain bit for bit and STATS must count
// both blocks. At 64 samples whole frames sit in the reader's buffer; at
// 4096 each payload is mostly read straight from the conn.
func TestPipelinedFrames(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	for _, n := range []int{64, 4096} {
		p := testParams(int64(70 + n))
		p.BlockSamples = n
		c, err := pipeSession(srv, p)
		if err != nil {
			t.Fatal(err)
		}
		defer c.conn.Close()
		if err := c.conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		src := rng.New(p.Seed)
		rx := [][]complex128{src.NoiseVector(n, 1), src.NoiseVector(n, 1)}
		ref := [][]complex128{src.NoiseVector(n, 1), src.NoiseVector(n, 1)}
		wire := append(append(dataFrame(rx[0], ref[0]), dataFrame(rx[1], ref[1])...), wireFrame(FrameDone, nil)...)
		// net.Pipe is unbuffered: the daemon's OUTs are read while the
		// write is still in flight.
		wrote := make(chan error, 1)
		go func() {
			_, err := c.conn.Write(wire)
			wrote <- err
		}()
		outs := [][]complex128{make([]complex128, n), make([]complex128, n)}
		readOut(t, c.br, outs[0])
		readOut(t, c.br, outs[1])
		readStats(t, c.br, 2)
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		checkSolo(t, p, c.Accept().AmpDB, rx, ref, outs)
	}
}

// fakeDaemon serves one session's handshake over net.Pipe, reads one
// DATA frame of p's block and answers it with reply, then closes. It
// returns the client end, already handshaken.
func fakeDaemon(t *testing.T, p SessionParams, reply []byte) *Client {
	t.Helper()
	cs, ss := net.Pipe()
	t.Cleanup(func() { cs.Close() })
	go func() {
		defer ss.Close()
		br := bufio.NewReaderSize(ss, controlWindow)
		if _, _, err := readFrame(br); err != nil {
			return
		}
		if _, err := ss.Write(wireFrame(FrameAccept, mustJSON(t, Accept{SessionID: 1}))); err != nil {
			return
		}
		if _, _, err := readHeader(br, FrameData, 2*p.BlockSamples*SampleBytes); err != nil {
			return
		}
		if _, err := br.Discard(2 * p.BlockSamples * SampleBytes); err != nil {
			return
		}
		ss.Write(reply)
		// Hold the conn open: a client that tried to read a payload the
		// reply does not carry would wait for it, not see EOF.
		io.Copy(io.Discard, ss)
	}()
	c, err := NewClientConnTimeout(cs, p, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestProcessRejectsWrongReply: a reply to DATA other than an OUT of
// exactly the block fails Process at its header. An OUT header of the
// wrong length returns errFrameLength without its payload being read (a
// read would wait out the client's timeout), and a REFUSE in place of
// OUT comes back as the *Refuse with its code.
func TestProcessRejectsWrongReply(t *testing.T) {
	p := testParams(11)
	n := p.BlockSamples
	src := rng.New(11)
	rx, ref := src.NoiseVector(n, 1), src.NoiseVector(n, 1)
	out := make([]complex128, n)
	for _, size := range []int{n*SampleBytes + SampleBytes, n*SampleBytes - SampleBytes, 0} {
		hdr := append(binary.BigEndian.AppendUint32(nil, uint32(size)), FrameOut)
		c := fakeDaemon(t, p, hdr)
		start := time.Now()
		if err := c.Process(out, rx, ref); !errors.Is(err, errFrameLength) {
			t.Fatalf("OUT of %d bytes: Process = %v, want errFrameLength", size, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("OUT of %d bytes: Process took %v; it waited for a payload", size, d)
		}
	}
	refusal := Refuse{Code: RefuseProtocol, Detail: "test"}
	c := fakeDaemon(t, p, wireFrame(FrameRefuse, mustJSON(t, refusal)))
	var got *Refuse
	if err := c.Process(out, rx, ref); !errors.As(err, &got) || *got != refusal {
		t.Fatalf("REFUSE in place of OUT: Process = %v, want %v", err, &refusal)
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

// scriptConn is the daemon's end of a net.Pipe whose reads come from a
// script of client writes instead of the pipe: each Read returns at most
// the rest of one write, the write at index gate only once release is
// closed, and io.EOF follows the last, so the handler ends once it has
// read every byte. Its writes and Close go through the pipe.
type scriptConn struct {
	net.Conn
	writes  [][]byte
	gate    int
	release chan struct{}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.writes) > 0 && len(c.writes[0]) == 0 {
		c.writes = c.writes[1:]
		c.gate--
	}
	if len(c.writes) == 0 {
		return 0, io.EOF
	}
	if c.gate == 0 {
		<-c.release
	}
	n := copy(p, c.writes[0])
	c.writes[0] = c.writes[0][n:]
	return n, nil
}

// FuzzSessionFrames feeds arbitrary bytes to an admitted daemon session
// (after its HELLO and one served block) and reads what it sends over
// net.Pipe. Whatever the bytes, the daemon serves, refuses with code
// protocol, or closes: every frame it sends is an OUT of exactly the
// block, or one final STATS counting every block it served or REFUSE
// with code protocol, and the conn then closes. It never panics, and
// reading the bytes allocates no more than the session's sample memory,
// whatever length a header declares.
func FuzzSessionFrames(f *testing.F) {
	p := testParams(12)
	p.BlockSamples = 64
	n := p.BlockSamples
	src := rng.New(12)
	data := dataFrame(src.NoiseVector(n, 1), src.NoiseVector(n, 1))
	hello := wireFrame(FrameHello, mustJSON(f, p))
	f.Add([]byte{})
	f.Add(data)
	f.Add(append(append(bytes.Clone(data), data...), wireFrame(FrameDone, nil)...))
	f.Add(wireFrame(FrameData, make([]byte, 2*n*SampleBytes+1)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, FrameData})
	f.Add(data[:frameHeaderLen+100])
	f.Add(hello)
	f.Add(wireFrame(FrameQuery, nil))
	f.Add(wireFrame(FrameDone, []byte{1, 2, 3}))
	memBytes := uint64(SampleBytes * (1 + 2*n))
	// encoding/json caches each type's encoder on first use; fill the
	// cache for the final frames so that is not measured below.
	mustJSON(f, Stats{})
	mustJSON(f, Refuse{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg := DefaultConfig()
		// Unarmed deadlines start no net.Pipe timers, so the allocations
		// measured are the handler's own.
		cfg.IdleTimeout, cfg.ReadTimeout, cfg.WriteTimeout = 0, 0, 0
		srv := New(cfg)
		cs, ss := net.Pipe()
		defer cs.Close()
		sc := &scriptConn{Conn: ss, writes: [][]byte{hello, data, raw}, gate: 2, release: make(chan struct{})}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(sc)
		}()
		br := bufio.NewReaderSize(cs, controlWindow)
		if typ, _, err := readFrame(br); err != nil || typ != FrameAccept {
			t.Fatalf("handshake: frame type %d, err %v; want ACCEPT", typ, err)
		}
		out := make([]complex128, n)
		blocks := uint64(0)
		var final [controlWindow]byte
		finalType, finalLen := byte(0), 0
		var before, after runtime.MemStats
		for {
			typ, size, err := readHeader(br, FrameOut, n*SampleBytes)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("after %d blocks: daemon frame type %d of %d bytes: %v", blocks, typ, size, err)
			}
			if finalType != 0 {
				t.Fatalf("frame type %d after final frame type %d", typ, finalType)
			}
			switch typ {
			case FrameOut:
				if _, err := io.ReadFull(br, sampleBytes(out)); err != nil {
					t.Fatal(err)
				}
				if blocks++; blocks == 1 {
					runtime.ReadMemStats(&before)
					close(sc.release)
				}
			case FrameStats, FrameRefuse:
				payload, err := readPayload(br, size)
				if err != nil {
					t.Fatal(err)
				}
				finalType, finalLen = typ, copy(final[:], payload)
			default:
				t.Fatalf("daemon sent frame type %d", typ)
			}
		}
		<-served
		runtime.ReadMemStats(&after)
		if blocks == 0 {
			t.Fatal("the block before the fuzzed bytes was not served")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > memBytes {
			t.Fatalf("the fuzzed bytes made the handler allocate %d bytes, over its %d-byte sample memory", got, memBytes)
		}
		switch finalType {
		case FrameStats:
			var st Stats
			if err := json.Unmarshal(final[:finalLen], &st); err != nil || st.Blocks != blocks {
				t.Fatalf("STATS %s (err %v) after %d served blocks", final[:finalLen], err, blocks)
			}
		case FrameRefuse:
			var ref Refuse
			if err := json.Unmarshal(final[:finalLen], &ref); err != nil || ref.Code != RefuseProtocol {
				t.Fatalf("REFUSE %s (err %v), want code %s", final[:finalLen], err, RefuseProtocol)
			}
		}
	})
}
