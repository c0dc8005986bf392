package kit

import (
	"net"
	"sync/atomic"
	"time"
)

// IOStats accumulates the time spent inside Read and Write calls on the
// connections that share it, and the bytes those calls moved. Several
// handler goroutines may add to one IOStats.
type IOStats struct {
	ReadNS, WriteNS       atomic.Int64
	ReadBytes, WriteBytes atomic.Int64
}

// Snapshot copies the counters.
func (s *IOStats) Snapshot() IOTotals {
	return IOTotals{ReadNS: s.ReadNS.Load(), WriteNS: s.WriteNS.Load(),
		ReadBytes: s.ReadBytes.Load(), WriteBytes: s.WriteBytes.Load()}
}

// IOTotals is a point-in-time copy of an IOStats.
type IOTotals struct {
	ReadNS, WriteNS, ReadBytes, WriteBytes int64
}

// Sub returns the counts accumulated since an earlier snapshot.
func (a IOTotals) Sub(b IOTotals) IOTotals {
	return IOTotals{a.ReadNS - b.ReadNS, a.WriteNS - b.WriteNS, a.ReadBytes - b.ReadBytes, a.WriteBytes - b.WriteBytes}
}

// Conn is a net.Conn that, while On is set, times every Read and Write
// into Stats and, when Tracer is set, records each call as a span under
// the span index Parent with the op ID. Tracer, Parent and ID belong to
// the one goroutine that uses the conn.
type Conn struct {
	net.Conn
	Stats  *IOStats
	On     *atomic.Bool
	Tracer *Tracer
	Parent int
	ID     uint64
}

// Read times the wrapped Read.
func (c *Conn) Read(p []byte) (int, error) {
	if !c.On.Load() {
		return c.Conn.Read(p)
	}
	sp := c.Tracer.Begin(c.ID, "conn.read", c.Parent)
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.Stats.ReadNS.Add(int64(time.Since(t0)))
	c.Tracer.End(sp)
	c.Stats.ReadBytes.Add(int64(n))
	return n, err
}

// Write times the wrapped Write.
func (c *Conn) Write(p []byte) (int, error) {
	if !c.On.Load() {
		return c.Conn.Write(p)
	}
	sp := c.Tracer.Begin(c.ID, "conn.write", c.Parent)
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.Stats.WriteNS.Add(int64(time.Since(t0)))
	c.Tracer.End(sp)
	c.Stats.WriteBytes.Add(int64(n))
	return n, err
}

// Listener wraps every accepted connection in a Conn sharing Stats and
// On, so a server's I/O is measured without touching the server.
type Listener struct {
	net.Listener
	Stats *IOStats
	On    *atomic.Bool
}

// Accept wraps the accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c, Stats: l.Stats, On: l.On, Parent: -1}, nil
}
