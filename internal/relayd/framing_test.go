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
		ic := newConn(client, 0)
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

// scriptConn is the daemon's end of a net.Pipe whose reads come from
// chunks the test feeds instead of the pipe. Each Read returns at most
// the rest of one chunk; a Read that finds no chunk queued first reports
// on waiting that the daemon has taken everything fed so far, then waits
// for the next; a closed feed reads as io.EOF. Writes and Close go
// through the pipe.
type scriptConn struct {
	net.Conn
	feed    chan []byte
	waiting chan struct{}
	cur     []byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.cur) == 0 {
		var ok bool
		select {
		case c.cur, ok = <-c.feed:
		default:
			c.waiting <- struct{}{}
			c.cur, ok = <-c.feed
		}
		if !ok {
			return 0, io.EOF
		}
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	return n, nil
}

// splitFrames cuts b into frames by their declared lengths; a last piece
// too short for its header or declared payload is returned whole.
func splitFrames(b []byte) [][]byte {
	var frames [][]byte
	for len(b) > 0 {
		end := len(b)
		if len(b) >= frameHeaderLen {
			if n := uint64(binary.BigEndian.Uint32(b)); n <= uint64(len(b)-frameHeaderLen) {
				end = frameHeaderLen + int(n)
			}
		}
		frames, b = append(frames, b[:end]), b[end:]
	}
	return frames
}

// coalesce groups consecutive frames into the runs the daemon is fed as
// one chunk each, so its reader meets several frames in one fill, at
// arbitrary offsets. A run ends after a DONE and after the frame that
// follows a HELLO: a session's first served block and its STATS then
// find the daemon waiting for input, with nothing of later frames read.
func coalesce(frames [][]byte) [][][]byte {
	var runs [][][]byte
	start := 0
	for i, fr := range frames {
		typ := byte(0)
		if len(fr) >= frameHeaderLen {
			typ = fr[frameHeaderLen-1]
		}
		afterHello := i > start && len(frames[i-1]) >= frameHeaderLen && frames[i-1][frameHeaderLen-1] == FrameHello
		if typ == FrameDone || afterHello || i == len(frames)-1 {
			runs = append(runs, frames[start:i+1])
			start = i + 1
		}
	}
	return runs
}

// FuzzSessionFrames feeds arbitrary bytes to a daemon connection after a
// HELLO and one served block of its session, and reads what the daemon
// sends over net.Pipe. The bytes arrive in runs of whole frames
// (coalesce), each run as one chunk. Whatever the bytes, the daemon
// answers each frame, in order, with one frame, or closes, as its
// connection state machine allows. In a session: an OUT of exactly the
// session's block for DATA; STATS counting the session's blocks for
// DONE, after which the connection is idle; or REFUSE with code protocol,
// then the close. Idle: ACCEPT for a HELLO, which opens a session of that
// HELLO's block; an admission REFUSE for a HELLO, after which it is idle
// still; INFO for a QUERY; or REFUSE with code protocol, then the close.
// It never panics, and from each admitted session's first served block to
// its end, the frames it reads make the handler allocate no more than
// that session's sample memory, whatever length a header declares. A
// session over that bound while the runtime started an OS thread (whose
// allocations are the runtime's) has the whole input run again, and the
// rerun is judged with no exception.
func FuzzSessionFrames(f *testing.F) {
	p := testParams(12)
	p.BlockSamples = 64
	n := p.BlockSamples
	src := rng.New(12)
	data := dataFrame(src.NoiseVector(n, 1), src.NoiseVector(n, 1))
	hello := wireFrame(FrameHello, mustJSON(f, p))
	done := wireFrame(FrameDone, nil)
	query := wireFrame(FrameQuery, nil)
	f.Add([]byte{})
	f.Add(data)
	f.Add(append(append(bytes.Clone(data), data...), done...))
	f.Add(wireFrame(FrameData, make([]byte, 2*n*SampleBytes+1)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, FrameData})
	f.Add(data[:frameHeaderLen+100])
	f.Add(hello)
	f.Add(query)
	f.Add(wireFrame(FrameDone, []byte{1, 2, 3}))
	f.Add(append(bytes.Clone(done), hello...))
	f.Add(bytes.Join([][]byte{done, hello, data, data, done, query}, nil))
	f.Add(bytes.Join([][]byte{done, query, query, hello}, nil))
	f.Add(bytes.Join([][]byte{done, wireFrame(FrameHello, []byte("{")), data, query}, nil))
	f.Add(bytes.Join([][]byte{data, data, data, done, query, query, hello, data, data, data, done}, nil))
	// encoding/json caches each type's encoder on first use; fill the
	// cache for the frames a session's end sends so that is not measured
	// below.
	mustJSON(f, Stats{})
	mustJSON(f, Refuse{})

	// run checks one input and reports whether a session went over its
	// bound while the thread count moved; strict judges that too.
	run := func(t *testing.T, raw []byte, strict bool) (remeasure bool) {
		cfg := DefaultConfig()
		// Unarmed deadlines, here and on the test's end, start no
		// net.Pipe timers, so the allocations measured are the handler's
		// own.
		cfg.IdleTimeout, cfg.ReadTimeout, cfg.WriteTimeout = 0, 0, 0
		srv := New(cfg)
		cs, ss := net.Pipe()
		defer cs.Close()
		sc := &scriptConn{Conn: ss, feed: make(chan []byte), waiting: make(chan struct{}, 1)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(sc)
		}()
		br := bufio.NewReaderSize(cs, controlWindow)
		// Everything the test itself allocates is allocated here, before
		// any measurement: the runs' chunks and what replies decode into.
		runs := coalesce(splitFrames(raw))
		chunks := make([][]byte, len(runs))
		for r, frames := range runs {
			chunks[r] = bytes.Join(frames, nil)
		}
		var ref Refuse
		var st Stats
		var hp SessionParams
		// reply reads the daemon's next frame: its type and, for a control
		// frame, its payload copied into payload.
		var payload [controlWindow]byte
		reply := func() (typ byte, size int, eof bool) {
			hdr, err := br.Peek(frameHeaderLen)
			if err == io.EOF && len(hdr) == 0 {
				return 0, 0, true
			}
			if err != nil {
				t.Fatalf("reading the daemon's frame header: %v", err)
			}
			typ, size = hdr[4], int(binary.BigEndian.Uint32(hdr[:4]))
			if _, err := br.Discard(frameHeaderLen); err != nil {
				t.Fatal(err)
			}
			if typ != FrameOut {
				if size > len(payload) {
					t.Fatalf("daemon frame type %d declares %d bytes, over the control window", typ, size)
				}
				if _, err := io.ReadFull(br, payload[:size]); err != nil {
					t.Fatal(err)
				}
			}
			return typ, size, false
		}

		// The daemon asks on sc.waiting before it blocks for each chunk,
		// and a chunk is fed only once asked for, so every request pairs
		// with one chunk. settle waits until the daemon has taken
		// everything fed: it asks for more, or, once the feed is closed,
		// it has read EOF and ended.
		asked, fedAll := false, false
		settle := func() {
			switch {
			case fedAll:
				<-served
			case !asked:
				<-sc.waiting
				asked = true
			}
		}
		feed := func(chunk []byte) {
			settle()
			sc.feed <- chunk
			asked = false
		}
		feed(hello)
		if typ, _, _ := reply(); typ != FrameAccept {
			t.Fatalf("handshake: frame type %d; want ACCEPT", typ)
		}
		feed(data)
		if typ, size, _ := reply(); typ != FrameOut || size != n*SampleBytes {
			t.Fatalf("first block: frame type %d of %d bytes; want OUT of %d samples", typ, size, n)
		}
		if _, err := br.Discard(n * SampleBytes); err != nil {
			t.Fatal(err)
		}

		// block is the session's block size (0: idle) and blocks what it
		// has served; from its first block on, the session's allocations
		// are measured from before. The runtime's own allocations for an
		// OS thread it starts (restarting the world after ReadMemStats can
		// start one, in a young process above all) are not the handler's.
		block, blocks := n, uint64(1)
		var before, after runtime.MemStats
		threads := func() int {
			n, _ := runtime.ThreadCreateProfile(nil)
			return n
		}
		threads0 := 0
		measure := func() {
			settle()
			threads0 = threads()
			runtime.ReadMemStats(&before)
		}
		measure()
		endSession := func() {
			runtime.ReadMemStats(&after)
			mem := uint64(SampleBytes * (1 + 2*block))
			if got := after.TotalAlloc - before.TotalAlloc; blocks > 0 && got > mem {
				if strict || threads() == threads0 {
					t.Fatalf("a %d-sample session's frames made the handler allocate %d bytes, over its %d-byte sample memory",
						block, got, mem)
				}
				remeasure = true
			}
			block, blocks = 0, 0
		}
	frames:
		for r, frames := range runs {
			feed(chunks[r])
			if r == len(runs)-1 {
				close(sc.feed) // nothing follows: the daemon reads EOF
				fedAll = true
			}
			for _, frame := range frames {
				typ, size, eof := reply()
				if eof {
					break frames
				}
				if len(frame) < frameHeaderLen {
					t.Fatalf("daemon frame type %d answers a %d-byte piece of a header", typ, len(frame))
				}
				sent := frame[frameHeaderLen-1]
				answers := func(want byte) {
					if sent != want {
						t.Fatalf("daemon frame type %d answers frame type %d, want %d", typ, sent, want)
					}
				}
				switch {
				case block != 0 && typ == FrameRefuse:
					// A session is refused only for a protocol violation,
					// and the daemon then closes: the session has ended
					// before its REFUSE is decoded.
					if _, _, eof := reply(); !eof {
						t.Fatal("the daemon sent a frame after refusing a session's frame")
					}
					<-served
					endSession()
					if err := json.Unmarshal(payload[:size], &ref); err != nil || ref.Code != RefuseProtocol {
						t.Fatalf("REFUSE %s (err %v) in a session, want code %s", payload[:size], err, RefuseProtocol)
					}
					break frames
				case typ == FrameRefuse:
					if err := json.Unmarshal(payload[:size], &ref); err != nil {
						t.Fatalf("REFUSE %s: %v", payload[:size], err)
					}
					if ref.Code == RefuseProtocol {
						if _, _, eof := reply(); !eof {
							t.Fatal("the daemon sent a frame after its protocol REFUSE")
						}
						<-served
						break frames
					}
					if ref.Code != RefuseBadHello && ref.Code != RefuseBudget && ref.Code != RefuseSessionLimit {
						t.Fatalf("REFUSE %s to an idle connection's frame type %d", payload[:size], sent)
					}
					answers(FrameHello)
				case block != 0 && typ == FrameOut:
					answers(FrameData)
					if size != block*SampleBytes {
						t.Fatalf("OUT of %d bytes in a %d-sample session", size, block)
					}
					if _, err := br.Discard(size); err != nil {
						t.Fatal(err)
					}
					if blocks++; blocks == 1 {
						measure()
					}
				case block != 0 && typ == FrameStats:
					answers(FrameDone)
					settle()
					got := blocks
					endSession()
					if err := json.Unmarshal(payload[:size], &st); err != nil || st.Blocks != got {
						t.Fatalf("STATS %s (err %v) after %d served blocks", payload[:size], err, got)
					}
				case block == 0 && typ == FrameAccept:
					answers(FrameHello)
					if err := json.Unmarshal(frame[frameHeaderLen:], &hp); err != nil || hp.Validate() != nil {
						t.Fatalf("ACCEPT for HELLO %s", frame[frameHeaderLen:])
					}
					block = hp.BlockSamples
				case block == 0 && typ == FrameInfo:
					answers(FrameQuery)
				default:
					t.Fatalf("daemon frame type %d answers frame type %d (session block %d)", typ, sent, block)
				}
			}
		}
		if !fedAll {
			close(sc.feed)
			fedAll = true
		}
		if typ, _, eof := reply(); !eof {
			t.Fatalf("frame type %d after every fed frame was answered", typ)
		}
		<-served
		if block != 0 {
			endSession()
		}
		return remeasure
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if run(t, raw, false) {
			run(t, raw, true)
		}
	})
}
