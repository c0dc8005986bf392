package relayd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

// clientConn is the client side of one daemon connection, shared by
// Client and InfoClient. It is not safe for concurrent use: one exchange
// is in flight at a time, mirroring the daemon's one-block-in-flight
// discipline.
type clientConn struct {
	conn net.Conn
	// br reads conn through a window of at least controlWindow bytes;
	// roundTrip grows it when a reply needs more.
	br *bufio.Reader
	// timeout bounds each exchange (zero: block indefinitely).
	timeout time.Duration
}

func newClientConn(conn net.Conn, timeout time.Duration) clientConn {
	return clientConn{conn: conn, br: bufio.NewReaderSize(conn, controlWindow), timeout: timeout}
}

// roundTrip is every client exchange. It arms the conn's deadline (or
// clears it when timeout is zero), writes frame as a typ frame, grows the
// read window to window bytes if it is smaller, and reads one reply. A
// REFUSE reply is returned as its *Refuse; any other type but want is a
// protocol error. The payload is a view of the read window, valid until
// the next exchange. A conn whose deadline cannot be armed is closed.
func (c *clientConn) roundTrip(typ byte, frame []byte, want byte, window int) ([]byte, error) {
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.conn.Close()
		return nil, err
	}
	if err := writeFrame(c.conn, typ, frame); err != nil {
		return nil, err
	}
	if c.br.Size() < window {
		c.br = rewindow(c.conn, c.br, window)
	}
	got, payload, err := readFrame(c.br)
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

// Client is one side of a relay session: it performs the HELLO handshake,
// streams DATA blocks, and collects the final STATS. A Client is not safe
// for concurrent use.
type Client struct {
	clientConn
	params SessionParams
	accept Accept
	// data is the DATA frame: header, then rx, then the reference.
	data   []byte
	blocks uint64
}

// NewClientConnTimeout runs the handshake over an established connection
// with a per-exchange I/O timeout (zero means block indefinitely); the
// handshake itself and every later Process/Close round trip are bounded
// by it. On refusal it returns the daemon's *Refuse and closes the
// connection.
func NewClientConnTimeout(conn net.Conn, params SessionParams, timeout time.Duration) (*Client, error) {
	hello, err := jsonFrame(params)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{clientConn: newClientConn(conn, timeout), params: params}
	payload, err := c.roundTrip(FrameHello, hello, FrameAccept, 0)
	if err == nil {
		err = json.Unmarshal(payload, &c.accept)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.data = make([]byte, frameHeaderLen+2*params.BlockSamples*SampleBytes)
	return c, nil
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
	payload, err := c.roundTrip(FrameData, c.data, FrameOut, frameHeaderLen+n*SampleBytes)
	if err != nil {
		return err
	}
	if len(payload) != n*SampleBytes {
		return fmt.Errorf("relayd: OUT frame carries %d bytes, want %d", len(payload), n*SampleBytes)
	}
	bytesToSamples(out, payload)
	c.blocks++
	return nil
}

// Close ends the stream with DONE, returns the daemon's final Stats, and
// closes the connection.
func (c *Client) Close() (Stats, error) {
	defer c.conn.Close()
	var st Stats
	payload, err := c.roundTrip(FrameDone, make([]byte, frameHeaderLen), FrameStats, 0)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(payload, &st)
	return st, err
}

// InfoClient is a control connection to a daemon: it issues QUERY frames
// and reads back INFO snapshots of the admission state. Like Client it is
// not safe for concurrent use — one query in flight at a time.
type InfoClient struct {
	clientConn
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
	return &InfoClient{newClientConn(conn, timeout)}
}

// Query performs one QUERY/INFO round trip.
func (c *InfoClient) Query() (Info, error) {
	var info Info
	payload, err := c.roundTrip(FrameQuery, make([]byte, frameHeaderLen), FrameInfo, 0)
	if err != nil {
		return info, err
	}
	err = json.Unmarshal(payload, &info)
	return info, err
}

// Close closes the control connection.
func (c *InfoClient) Close() error { return c.conn.Close() }
