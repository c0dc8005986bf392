// Package deadfixture exercises netdeadline: direct and helper-mediated
// conn I/O with and without an armed deadline, discarded setter errors,
// receiver-field arming (an arm method on a conn field), and reads
// through a *bufio.Reader over a conn.
package deadfixture

import (
	"bufio"
	"io"
	"net"
	"time"
)

// writeRaw performs I/O without arming a deadline: the caller must arm.
// It declares io.Writer, not net.Conn — the convention for
// caller-arms-the-deadline helpers (the writeFrame/readFrame shape;
// framing is transport-agnostic by design). A helper doing unarmed I/O
// on a net.Conn parameter is itself a finding.
func writeRaw(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// armWrite arms a deadline on its conn parameter and checks the error:
// calling it counts as arming at the call site.
func armWrite(c net.Conn) error {
	return c.SetWriteDeadline(time.Now().Add(time.Second))
}

func sendUnarmed(c net.Conn, b []byte) {
	c.Write(b) // want `c\.Write without a deadline armed on c`
}

func sendViaHelperUnarmed(c net.Conn, b []byte) {
	writeRaw(c, b) // want `conn c passed to I/O without a deadline armed`
}

func sendArmed(c net.Conn, b []byte) error {
	if err := armWrite(c); err != nil {
		return err
	}
	return writeRaw(c, b)
}

func readArmedDirect(c net.Conn, b []byte) error {
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := c.Read(b)
	return err
}

func externalIOUnarmed(c net.Conn) {
	io.ReadFull(c, make([]byte, 4)) // want `conn c passed to I/O without a deadline armed`
}

func externalIOArmed(c net.Conn) error {
	if err := c.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := io.ReadFull(c, make([]byte, 4))
	return err
}

// setWriteDeadlineOld is the pinned real finding: internal/relayd's
// setWriteDeadline discarded the setter's error (relayd.go:345 before
// the fix), leaving the next write unbounded on a conn that was already
// dead.
func setWriteDeadlineOld(c net.Conn, timeout time.Duration) {
	if timeout > 0 {
		c.SetWriteDeadline(time.Now().Add(timeout)) // want `c\.SetWriteDeadline result discarded`
	}
}

func blankedSetter(c net.Conn) {
	_ = c.SetReadDeadline(time.Now().Add(time.Second)) // want `c\.SetReadDeadline result discarded`
}

// refuseLike arms through one helper, then does I/O through another:
// transitively clean, and callers passing a conn to it count as armed.
func refuseLike(c net.Conn) {
	if armWrite(c) == nil {
		writeRaw(c, nil)
	}
}

func callerOfRefuseLike(c net.Conn, b []byte) error {
	refuseLike(c)
	return writeRaw(c, b)
}

// closeOnly: Close and address reads are neutral, no deadline needed.
func closeOnly(c net.Conn) {
	defer c.Close()
	c.RemoteAddr()
}

type client struct {
	conn net.Conn
}

// arm arms a deadline on the receiver's conn field: calling it arms
// c.conn for the caller.
func (c *client) arm() error {
	return c.conn.SetDeadline(time.Now().Add(time.Second))
}

func (c *client) roundTripOK(b []byte) error {
	if err := c.arm(); err != nil {
		return err
	}
	_, err := c.conn.Write(b)
	return err
}

func (c *client) roundTripBad(b []byte) error {
	_, err := c.conn.Write(b) // want `c\.conn\.Write without a deadline armed`
	return err
}

// allowedUnarmed carries a written justification.
func allowedUnarmed(c net.Conn, b []byte) {
	c.Write(b) //fflint:allow netdeadline fixture exercises the suppression path
}

// Buffered reads. A *bufio.Reader built over a conn reads that conn, so
// a read through it needs the conn's deadline armed — whether the reader
// is a local built over the conn, a parameter beside the one conn
// parameter, or a struct field beside the one conn field.

// readHeader is the caller-arms helper for buffered reads (the relayd
// readFrame shape): it takes only the reader.
func readHeader(br *bufio.Reader) ([]byte, error) {
	return br.Peek(5)
}

func localReaderArmed(c net.Conn) error {
	br := bufio.NewReaderSize(c, 64) // building the reader reads nothing
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := readHeader(br)
	return err
}

func localReaderUnarmed(c net.Conn) {
	br := bufio.NewReader(c)
	br.Peek(5) // want `br\.Peek reads conn c without a deadline armed`
}

func localReaderHelperUnarmed(c net.Conn) {
	var br = bufio.NewReader(c)
	if br.Buffered() == 0 { // Size, Buffered and Reset read nothing
		readHeader(br) // want `conn c passed to I/O through br without a deadline armed`
	}
}

// paramReaderArmed arms the conn, then reads through the reader beside
// it (the relayd readSessionFrame shape): it arms for its callers.
func paramReaderArmed(c net.Conn, br *bufio.Reader) error {
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := readHeader(br)
	return err
}

// paramReaderUnarmed reads through the reader beside the conn without
// arming it: a finding here, and I/O on the conn for its callers.
func paramReaderUnarmed(c net.Conn, br *bufio.Reader) {
	br.Discard(1) // want `br\.Discard reads conn c without a deadline armed`
}

func callerOfParamReaderArmed(c net.Conn, br *bufio.Reader) error {
	if err := paramReaderArmed(c, br); err != nil {
		return err
	}
	_, err := readHeader(br)
	return err
}

func callerOfParamReaderUnarmed(c net.Conn) {
	paramReaderUnarmed(c, bufio.NewReader(c)) // want `conn c passed to I/O without a deadline armed`
}

type bufClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func (c *bufClient) arm() error {
	return c.conn.SetDeadline(time.Now().Add(time.Second))
}

func (c *bufClient) readOK() error {
	if err := c.arm(); err != nil {
		return err
	}
	_, err := readHeader(c.br)
	return err
}

func (c *bufClient) readBad() {
	c.br.ReadByte() // want `c\.br\.ReadByte reads conn c\.conn without a deadline armed`
}

func (c *bufClient) readHelperBad() {
	readHeader(c.br) // want `conn c\.conn passed to I/O through c\.br without a deadline armed`
}
