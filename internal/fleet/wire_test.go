package fleet

import (
	"net"
	"testing"
	"time"

	"fastforward/internal/obs"
	"fastforward/internal/relay"
	"fastforward/internal/relayd"
)

// TestWireEndpointFailurePaths drives a WireEndpoint's transport failures
// against an in-process daemon. A connection the daemon idled out —
// after a query, or after a released session — is redialed once and the
// query or admission succeeds with no io_error; once the daemon is gone,
// Admit refuses with RefuseUnreachable, Sessions falls back to the
// endpoint's own books, ResidualLoad to the last load it saw, and
// MaxSessions keeps its cached cap, each failure counting one io_error.
func TestWireEndpointFailurePaths(t *testing.T) {
	const idle = 100 * time.Millisecond
	cfg := relayd.DefaultConfig()
	cfg.MaxSessions = 4
	cfg.IdleTimeout = idle
	srv := relayd.New(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	reg := obs.New()
	ep := NewWireEndpoint(ln.Addr().String(), DefaultWireSpec(), reg, 0)
	queries := reg.Counter("fleet.wire.load_queries", "queries")
	ioErrors := reg.Counter("fleet.wire.io_errors", "errors")
	dials := reg.Counter("fleet.wire.dials", "connections")

	// The daemon idles the connection out between two queries; the second
	// query redials it.
	if n := ep.Sessions(); n != 0 {
		t.Fatalf("Sessions() = %d on an idle daemon, want 0", n)
	}
	time.Sleep(5 * idle)
	if n := ep.Sessions(); n != 0 {
		t.Fatalf("Sessions() after the idle timeout = %d, want 0", n)
	}
	if q, e, d := queries.Value(), ioErrors.Value(), dials.Value(); q != 2 || e != 0 || d != 2 {
		t.Fatalf("load_queries=%d io_errors=%d dials=%d after the redial, want 2/0/2", q, e, d)
	}

	// Admit reuses the query's connection, and Release leaves it idle;
	// once the daemon has idled it out, the next Admit redials.
	sb := relay.SessionBudget{CancellationDB: 110, RDAttenDB: 60, PAHeadroomDB: 40, RxOverNoiseDB: 30}
	if _, _, ref := ep.Admit("c1", sb); ref != nil {
		t.Fatalf("Admit on a live daemon refused: %v", ref)
	}
	if d := dials.Value(); d != 2 {
		t.Fatalf("Admit dialed with an idle connection at hand (dials = %d, want 2)", d)
	}
	if !ep.Release("c1") {
		t.Fatal("Release of an admitted session reported no session")
	}
	time.Sleep(5 * idle)
	if _, _, ref := ep.Admit("c1", sb); ref != nil {
		t.Fatalf("Admit over an idled-out connection refused: %v", ref)
	}
	if e, d := ioErrors.Value(), dials.Value(); e != 0 || d != 3 {
		t.Fatalf("io_errors=%d dials=%d after redialing the idled-out connection, want 0/3", e, d)
	}
	load := ep.ResidualLoad()
	if !(load > 0) {
		t.Fatalf("ResidualLoad() = %v with one session admitted, want > 0", load)
	}
	if n := ep.MaxSessions(); n != cfg.MaxSessions {
		t.Fatalf("MaxSessions() = %d, want %d", n, cfg.MaxSessions)
	}

	srv.Close()
	steps := []struct {
		name  string
		check func() bool
	}{
		{"Admit refuses unreachable within 50 ms", func() bool {
			// One dial, no backoff: a dead relay costs the placement walk
			// a refused connect, not a retry schedule.
			t0 := time.Now()
			_, _, ref := ep.Admit("c2", sb)
			return ref != nil && ref.Code == relayd.RefuseUnreachable && time.Since(t0) < 50*time.Millisecond
		}},
		{"Sessions falls back to the endpoint's books", func() bool { return ep.Sessions() == 1 }},
		{"ResidualLoad returns the last load", func() bool { return ep.ResidualLoad() == load }},
		{"Release of the dead session still frees it", func() bool { return ep.Release("c1") && !ep.Release("c1") }},
	}
	for i, s := range steps {
		if !s.check() {
			t.Fatalf("daemon closed: %s failed", s.name)
		}
		if got, want := ioErrors.Value(), uint64(i+1); got != want {
			t.Fatalf("daemon closed, after %q: io_errors = %d, want %d", s.name, got, want)
		}
	}
	if n := ep.MaxSessions(); n != cfg.MaxSessions {
		t.Fatalf("MaxSessions() = %d after the daemon closed, want the cached %d", n, cfg.MaxSessions)
	}
	if got := ioErrors.Value(); got != uint64(len(steps)) {
		t.Fatalf("the cached MaxSessions counted an io_error (io_errors = %d)", got)
	}
}
