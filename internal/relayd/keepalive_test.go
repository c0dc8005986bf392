package relayd

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fastforward/internal/rng"
)

// countingListener counts the connections its Accept hands out.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestConnOutlivesConversations runs every kind of conversation in turn
// over one TCP connection: QUERY→INFO; a session (HELLO→ACCEPT, verified
// blocks, DONE→STATS); a HELLO refused with session_limit while another
// session holds the daemon's one slot; and, once that session is
// released, a second verified session. The daemon accepts one connection
// in all and counts no I/O error.
func TestConnOutlivesConversations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSessions = 1
	srv, reg := newTestServer(t, cfg)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp}
	go srv.Serve(ln)
	conn, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if info, err := conn.Query(); err != nil || info.Active != 0 || info.MaxSessions != 1 {
		t.Fatalf("QUERY: %+v, %v; want 0 active of 1", info, err)
	}
	session := func(seed int64) {
		t.Helper()
		c, err := conn.Open(testParams(seed))
		if err != nil {
			t.Fatalf("HELLO %d: %v", seed, err)
		}
		if served, err := c.Stream(rng.New(seed), 3, true); served != 3 || err != nil {
			t.Fatalf("session %d: served %d blocks, %v; want 3 bit-exact", seed, served, err)
		}
		if st, err := c.End(); err != nil || st.Blocks != 3 {
			t.Fatalf("session %d: DONE got %+v, %v; want STATS of 3 blocks", seed, st, err)
		}
	}
	session(1)

	holder, err := pipeSession(srv, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	var ref *Refuse
	if _, err := conn.Open(testParams(3)); !errors.As(err, &ref) || ref.Code != RefuseSessionLimit {
		t.Fatalf("HELLO over the cap: %v, want a %s refusal", err, RefuseSessionLimit)
	}
	if _, err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	session(4)
	if info, err := conn.Query(); err != nil || info.Active != 0 {
		t.Fatalf("QUERY after the last release: %+v, %v; want 0 active", info, err)
	}

	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("daemon accepted %d connections, want 1", got)
	}
	conn.Close()
	waitFor(t, "the connection's handler to end", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	if got := reg.Counter("relayd.io_errors", "errors").Value(); got != 0 {
		t.Fatalf("relayd.io_errors = %d, want 0", got)
	}
}

// TestServeAfterClose: a Serve or ServeStatus that starts after Close
// closes its listener and returns nil instead of accepting forever.
func TestServeAfterClose(t *testing.T) {
	srv := New(DefaultConfig())
	srv.Close()
	for name, serve := range map[string]func(net.Listener) error{"Serve": srv.Serve, "ServeStatus": srv.ServeStatus} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		served := make(chan error, 1)
		go func() { served <- serve(ln) }()
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("%s after Close = %v, want nil", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s after Close still accepting 1 s later", name)
		}
		if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept on the listener after %s returned: %v, want net.ErrClosed", name, err)
		}
	}
}

// TestDrainClosesIdleConns: Drain closes a connection that is idle
// between conversations — here one that has only run a QUERY — at once,
// instead of waiting for it until its context expires, and counts no I/O
// error for it.
func TestDrainClosesIdleConns(t *testing.T) {
	srv, reg := newTestServer(t, DefaultConfig())
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	conn := newConn(cs, 5*time.Second)
	defer conn.Close()
	if _, err := conn.Query(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v after %v, want nil", err, time.Since(start))
	}
	if _, err := conn.Query(); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("QUERY after Drain = %v, want ErrPeerClosed", err)
	}
	if got := reg.Counter("relayd.io_errors", "errors").Value(); got != 0 {
		t.Fatalf("relayd.io_errors = %d, want 0", got)
	}
}

// TestFirstFrameReadTimeout: a new connection's first frame, header and
// payload, is read under one read timeout from the connect. A peer that
// sends a header late and then stalls on its payload is closed when that
// timeout expires, not a fresh timeout after the header.
func TestFirstFrameReadTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadTimeout = 400 * time.Millisecond
	srv, reg := newTestServer(t, cfg)
	cs, ss := net.Pipe()
	defer cs.Close()
	start := time.Now()
	go srv.ServeConn(ss)
	time.Sleep(300 * time.Millisecond)
	if _, err := cs.Write([]byte{0, 0, 0, 10, FrameHello}); err != nil {
		t.Fatalf("writing the HELLO header: %v", err)
	}
	if _, err := cs.Read(make([]byte, 1)); err == nil {
		t.Fatal("the daemon answered a HELLO whose payload never came")
	}
	if took := time.Since(start); took > 600*time.Millisecond {
		t.Fatalf("the daemon closed the stalled first frame %v after the connect, want about the 400ms read timeout", took)
	}
	waitFor(t, "the stalled read to be counted", func() bool {
		return reg.Counter("relayd.io_errors", "errors").Value() == 1
	})
}
