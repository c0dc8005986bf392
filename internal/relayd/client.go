package relayd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"fastforward/internal/rng"
)

// clientConn is the client side of one daemon connection, shared by
// Conn and Client. It is not safe for concurrent use: one exchange is in
// flight at a time, mirroring the daemon's one-block-in-flight
// discipline.
type clientConn struct {
	conn net.Conn
	// br reads conn through a buffer of controlWindow bytes.
	br *bufio.Reader
	// timeout bounds each exchange (zero: block indefinitely).
	timeout time.Duration
}

// ErrPeerClosed marks an exchange that found its connection already
// closed by the daemon: the request could not be written, or the
// connection ended (EOF or reset) before any byte of a reply. The daemon
// answered nothing, so the exchange may be retried on a new connection —
// the case of an idle connection the daemon timed out or closed.
var ErrPeerClosed = errors.New("relayd: connection closed by the daemon")

// send starts every client exchange: it arms the conn's deadline (or
// clears it when timeout is zero; a conn it cannot arm is closed), writes
// frame as a typ frame and reads the reply's header (readHeader).
func (c *clientConn) send(typ byte, frame []byte, bulk byte, bulkLen int) (got byte, n int, err error) {
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.conn.Close()
		return 0, 0, c.peerClosed(err)
	}
	if err := writeFrame(c.conn, typ, frame); err != nil {
		return 0, 0, c.peerClosed(err)
	}
	got, n, err = readHeader(c.br, bulk, bulkLen)
	if err != nil {
		err = c.peerClosed(err)
	}
	return got, n, err
}

// peerClosed wraps err in ErrPeerClosed if it shows the daemon had closed
// the connection before any reply byte arrived.
func (c *clientConn) peerClosed(err error) error {
	if c.br.Buffered() == 0 && (err == io.EOF || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.ErrClosedPipe)) {
		return fmt.Errorf("%w: %w", ErrPeerClosed, err)
	}
	return err
}

// readReply reads the n-byte control payload of a got reply off br and
// returns it, a view valid until the next exchange, if got is want; a
// REFUSE comes back as its *Refuse and any other type as an error.
func readReply(br *bufio.Reader, got byte, n int, want byte) ([]byte, error) {
	payload, err := readPayload(br, n)
	switch {
	case err != nil:
		return nil, err
	case got == want:
		return payload, nil
	case got == FrameRefuse:
		ref := &Refuse{}
		if err := json.Unmarshal(payload, ref); err != nil {
			return nil, err
		}
		return nil, ref
	}
	return nil, fmt.Errorf("relayd: got frame type %d, want %d", got, want)
}

// roundTrip is a control exchange: send, then readReply.
func (c *clientConn) roundTrip(typ byte, frame []byte, want byte) ([]byte, error) {
	got, n, err := c.send(typ, frame, 0, 0) // every reply is a control frame
	if err != nil {
		return nil, err
	}
	return readReply(c.br, got, n, want)
}

// Conn is a daemon connection between conversations. On it a client
// asks for the admission state (Query) or opens a session (Open); a
// session ended with Client.End leaves it idle again, so one connection
// serves any number of conversations in turn. Like Client it is not safe
// for concurrent use, and it must not be used while a session opened on
// it is live.
type Conn struct {
	clientConn
}

// newConn wraps an established connection as Dial does.
func newConn(conn net.Conn, timeout time.Duration) *Conn {
	return &Conn{clientConn{conn: conn, br: bufio.NewReaderSize(conn, controlWindow), timeout: timeout}}
}

// Dial connects to a daemon once, with a per-exchange I/O timeout (zero
// means block indefinitely). No frame is exchanged until Query or Open.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(conn, timeout), nil
}

// Query performs one QUERY/INFO round trip.
func (c *Conn) Query() (Info, error) {
	var info Info
	payload, err := c.roundTrip(FrameQuery, make([]byte, frameHeaderLen), FrameInfo)
	if err != nil {
		return info, err
	}
	err = json.Unmarshal(payload, &info)
	return info, err
}

// Open runs the HELLO handshake and returns the admitted session, which
// holds the connection until End. A refusal returns the daemon's *Refuse
// and leaves the connection idle (a daemon that is draining closes it
// after the REFUSE); any other error leaves it unusable.
func (c *Conn) Open(params SessionParams) (*Client, error) {
	hello, err := jsonFrame(params)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(FrameHello, hello, FrameAccept)
	if err != nil {
		return nil, err
	}
	s := &Client{clientConn: c.clientConn, params: params}
	if err := json.Unmarshal(payload, &s.accept); err != nil {
		return nil, err
	}
	return s, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }

// Client is one side of a relay session: opened with a HELLO handshake
// (Conn.Open), it streams DATA blocks and collects the final STATS. A
// Client is not safe for concurrent use.
type Client struct {
	clientConn
	params SessionParams
	accept Accept
	// mem is the DATA frame's sample memory (a header slot, rx, the
	// reference), made by the first Process; data views it as the frame,
	// from the slot's tail on.
	mem    []complex128
	data   []byte
	blocks uint64
}

// NewClientConnTimeout runs the handshake over an established connection
// with a per-exchange I/O timeout (zero means block indefinitely); the
// handshake itself and every later Process/Close round trip are bounded
// by it. On refusal it returns the daemon's *Refuse and closes the
// connection, as it does on any other error.
func NewClientConnTimeout(conn net.Conn, params SessionParams, timeout time.Duration) (*Client, error) {
	c, err := newConn(conn, timeout).Open(params)
	if err != nil {
		conn.Close()
	}
	return c, err
}

// DialTimeout connects to a daemon with reconnect backoff and a
// per-exchange I/O timeout applied to the handshake and every later
// round trip (zero means block indefinitely). Transient dial errors retry
// up to attempts times, but a refusal from the daemon is terminal — the
// admission verdict will not change by retrying.
func DialTimeout(addr string, params SessionParams, bo *Backoff, attempts int, timeout time.Duration) (*Client, error) {
	if bo == nil {
		bo = &Backoff{}
	}
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(bo.Next())
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		c, err := NewClientConnTimeout(conn, params, timeout)
		if err != nil {
			var ref *Refuse
			if errors.As(err, &ref) {
				return nil, err
			}
			lastErr = err
			continue
		}
		bo.Reset()
		return c, nil
	}
	return nil, fmt.Errorf("relayd: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// Accept returns the daemon's admission grant for this session.
func (c *Client) Accept() Accept { return c.accept }

// Process sends one block round trip: rx and the transmit reference go
// out in a DATA frame, and the daemon's processed block is read straight
// into out (which may alias rx); on an error out may be partly written.
// All three slices must hold exactly BlockSamples samples. The caller
// owns rx and ref, so they are copied into the frame: the one
// whole-block copy left on either end of the served path.
func (c *Client) Process(out, rx, ref []complex128) error {
	n := c.params.BlockSamples
	if len(rx) != n || len(ref) != n || len(out) != n {
		return fmt.Errorf("relayd: Process slices must hold %d samples", n)
	}
	if c.mem == nil {
		c.mem = make([]complex128, 1+2*n)
		c.data = sampleBytes(c.mem)[SampleBytes-frameHeaderLen:]
	}
	copy(c.mem[1:1+n], rx)
	copy(c.mem[1+n:], ref)
	wireOrder(c.mem[1:])
	got, size, err := c.send(FrameData, c.data, FrameOut, n*SampleBytes)
	if err == nil && got != FrameOut {
		_, err = readReply(c.br, got, size, FrameOut) // a REFUSE, or a protocol error
	}
	if err != nil {
		return err
	}
	if _, err := io.ReadFull(c.br, sampleBytes(out)); err != nil {
		return err
	}
	wireOrder(out)
	c.blocks++
	return nil
}

// ErrNotBitExact marks a Stream failure in which the daemon's output
// differed from the local chain, as opposed to a failed exchange.
var ErrNotBitExact = errors.New("bit-exact required")

// Stream sends blocks of seeded noise through the session: the transmit
// reference and the received signal are drawn from src,
// blocks·BlockSamples samples each. With verify set, each returned block
// must be bit-identical to a local replica of the daemon's chain
// (BuildSessionChain at the ACCEPT's grant) — the proof that the served
// path runs the pipeline the grant priced. It returns how many blocks the
// daemon returned and the first failure: a failed exchange, or an output
// mismatch wrapping ErrNotBitExact.
func (c *Client) Stream(src *rng.Source, blocks int, verify bool) (int, error) {
	n := c.params.BlockSamples
	tx := src.NoiseVector(blocks*n, 1)
	rx := src.NoiseVector(blocks*n, 1)
	out := make([]complex128, n)
	want := make([]complex128, n)
	ref, refCancel := BuildSessionChain(c.params, c.accept.AmpDB)
	for b := 0; b < blocks; b++ {
		off := b * n
		if err := c.Process(out, rx[off:off+n], tx[off:off+n]); err != nil {
			return b, fmt.Errorf("block %d: %w", b, err)
		}
		if !verify {
			continue
		}
		copy(want, rx[off:off+n])
		refCancel.SetReference(tx[off : off+n])
		ref.Process(want)
		for j := range want {
			if out[j] != want[j] {
				return b + 1, fmt.Errorf("block %d sample %d: daemon %v, local chain %v (%w)",
					b, j, out[j], want[j], ErrNotBitExact)
			}
		}
	}
	return blocks, nil
}

// End ends the session with DONE and returns the daemon's final Stats.
// The daemon has freed the session's slot by then, and the connection is
// idle again: Conn returns it for the next conversation.
func (c *Client) End() (Stats, error) {
	var st Stats
	payload, err := c.roundTrip(FrameDone, make([]byte, frameHeaderLen), FrameStats)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(payload, &st)
	return st, err
}

// Conn returns the connection the session runs on, idle again once End
// has returned without error.
func (c *Client) Conn() *Conn { return &Conn{c.clientConn} }

// Close ends the session (End) and closes the connection.
func (c *Client) Close() (Stats, error) {
	defer c.conn.Close()
	return c.End()
}
