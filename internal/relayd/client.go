package relayd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client is one side of a relay session: it performs the HELLO handshake,
// streams DATA blocks, and collects the final STATS. A Client is not safe
// for concurrent use; it mirrors the daemon's one-block-in-flight
// discipline.
type Client struct {
	conn net.Conn
	// br reads conn through a window of max(controlWindow, one OUT
	// frame); the first Process grows it from the handshake's
	// controlWindow when an OUT frame needs more.
	br     *bufio.Reader
	params SessionParams
	accept Accept
	// data is the DATA frame: header, then rx, then the reference.
	data    []byte
	blocks  uint64
	timeout time.Duration
}

// armConnDeadline arms (timeout > 0) or clears (timeout == 0) the conn's
// combined read/write deadline ahead of a frame exchange.
func armConnDeadline(conn net.Conn, timeout time.Duration) error {
	var t time.Time
	if timeout > 0 {
		t = time.Now().Add(timeout)
	}
	return conn.SetDeadline(t)
}

// armDeadline arms the client's configured deadline before each round
// trip, so a stuck daemon surfaces as a timeout instead of a hang.
func (c *Client) armDeadline() error {
	return armConnDeadline(c.conn, c.timeout)
}

// NewClientConn runs the handshake over an established connection with no
// I/O timeout. On refusal it returns a *RefusedError and closes the
// connection.
func NewClientConn(conn net.Conn, params SessionParams) (*Client, error) {
	return NewClientConnTimeout(conn, params, 0)
}

// NewClientConnTimeout is NewClientConn with a per-exchange I/O timeout
// (zero means block indefinitely); the handshake itself and every later
// Process/Close round trip are bounded by it.
func NewClientConnTimeout(conn net.Conn, params SessionParams, timeout time.Duration) (*Client, error) {
	if err := armConnDeadline(conn, timeout); err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeJSONFrame(conn, FrameHello, params); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, controlWindow)
	typ, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch typ {
	case FrameAccept:
		c := &Client{conn: conn, br: br, params: params,
			data:    make([]byte, frameHeaderLen+2*params.BlockSamples*SampleBytes),
			timeout: timeout}
		if err := json.Unmarshal(payload, &c.accept); err != nil {
			conn.Close()
			return nil, err
		}
		return c, nil
	case FrameRefuse:
		var ref Refuse
		if err := json.Unmarshal(payload, &ref); err != nil {
			conn.Close()
			return nil, err
		}
		conn.Close()
		return nil, &RefusedError{Code: ref.Code, Detail: ref.Detail}
	default:
		conn.Close()
		return nil, fmt.Errorf("relayd: unexpected handshake frame type %d", typ)
	}
}

// Dial connects to a daemon with reconnect backoff and no I/O timeout:
// transient dial errors retry up to attempts times, but a refusal from
// the daemon is terminal — the admission verdict will not change by
// retrying.
func Dial(addr string, params SessionParams, bo *Backoff, attempts int) (*Client, error) {
	return DialTimeout(addr, params, bo, attempts, 0)
}

// DialTimeout is Dial with a per-exchange I/O timeout applied to the
// handshake and every later round trip (zero means block indefinitely).
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
			var ref *RefusedError
			if asRefused(err, &ref) {
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

func asRefused(err error, ref **RefusedError) bool {
	r, ok := err.(*RefusedError)
	if ok {
		*ref = r
	}
	return ok
}

// Accept returns the daemon's admission grant for this session.
func (c *Client) Accept() Accept { return c.accept }

// Process sends one block round trip: rx and the transmit reference go
// out in a DATA frame, and the daemon's processed block is written back
// into out (which may alias rx). All three slices must hold exactly
// BlockSamples samples.
func (c *Client) Process(out, rx, ref []complex128) error {
	n := c.params.BlockSamples
	if len(rx) != n || len(ref) != n || len(out) != n {
		return fmt.Errorf("relayd: Process slices must hold %d samples", n)
	}
	samplesToBytes(c.data[frameHeaderLen:frameHeaderLen+n*SampleBytes], rx)
	samplesToBytes(c.data[frameHeaderLen+n*SampleBytes:], ref)
	if err := c.armDeadline(); err != nil {
		c.conn.Close()
		return err
	}
	if err := writeFrame(c.conn, FrameData, c.data); err != nil {
		return err
	}
	if size := frameHeaderLen + n*SampleBytes; c.br.Size() < size {
		c.br = rewindow(c.conn, c.br, size)
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return err
	}
	switch typ {
	case FrameOut:
		if len(payload) != n*SampleBytes {
			return fmt.Errorf("relayd: OUT frame carries %d bytes, want %d", len(payload), n*SampleBytes)
		}
		bytesToSamples(out, payload)
		c.blocks++
		return nil
	case FrameRefuse:
		var ref Refuse
		if err := json.Unmarshal(payload, &ref); err != nil {
			return err
		}
		return &RefusedError{Code: ref.Code, Detail: ref.Detail}
	default:
		return fmt.Errorf("relayd: unexpected frame type %d mid-stream", typ)
	}
}

// InfoClient is a control connection to a daemon: it issues QUERY frames
// and reads back INFO snapshots of the admission state. Like Client it is
// not safe for concurrent use — one query in flight at a time.
type InfoClient struct {
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration
}

// DialInfo opens a control connection with a per-exchange I/O timeout
// (zero means block indefinitely). No frame is exchanged until Query.
func DialInfo(addr string, timeout time.Duration) (*InfoClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newInfoClient(conn, timeout), nil
}

func newInfoClient(conn net.Conn, timeout time.Duration) *InfoClient {
	return &InfoClient{conn: conn, br: bufio.NewReaderSize(conn, controlWindow), timeout: timeout}
}

// Query performs one QUERY/INFO round trip.
func (c *InfoClient) Query() (Info, error) {
	var info Info
	if err := armConnDeadline(c.conn, c.timeout); err != nil {
		c.conn.Close()
		return info, err
	}
	if err := writeFrame(c.conn, FrameQuery, make([]byte, frameHeaderLen)); err != nil {
		return info, err
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return info, err
	}
	switch typ {
	case FrameInfo:
		err = json.Unmarshal(payload, &info)
		return info, err
	case FrameRefuse:
		var ref Refuse
		if err := json.Unmarshal(payload, &ref); err != nil {
			return info, err
		}
		return info, &RefusedError{Code: ref.Code, Detail: ref.Detail}
	default:
		return info, fmt.Errorf("relayd: unexpected frame type %d on query connection", typ)
	}
}

// Close closes the control connection.
func (c *InfoClient) Close() error { return c.conn.Close() }

// Close ends the stream with DONE, returns the daemon's final Stats, and
// closes the connection.
func (c *Client) Close() (Stats, error) {
	defer c.conn.Close()
	var st Stats
	if err := c.armDeadline(); err != nil {
		return st, err
	}
	if err := writeFrame(c.conn, FrameDone, make([]byte, frameHeaderLen)); err != nil {
		return st, err
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return st, err
	}
	if typ != FrameStats {
		return st, fmt.Errorf("relayd: expected STATS, got frame type %d", typ)
	}
	err = json.Unmarshal(payload, &st)
	return st, err
}
