package relayd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
)

// testParams is a comfortably-admissible session: strong cancellation
// keeps its residual weight tiny, so the PA headroom binds.
func testParams(seed int64) SessionParams {
	return SessionParams{
		SampleRateHz: 20e6, BlockSamples: 256, CancelTaps: 24, CNFTaps: 16,
		CFOHz: 1500, Seed: seed,
		CancellationDB: 85, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 30,
	}
}

// noisyParams is a session whose residual dominates its own floor
// (β = 0.5): a handful of them exhaust the shared budget.
func noisyParams(seed int64) SessionParams {
	p := testParams(seed)
	p.CancellationDB, p.RxOverNoiseDB = 55, 52
	return p
}

func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.New()
	}
	srv := New(cfg)
	t.Cleanup(srv.Close)
	return srv, cfg.Registry
}

// pipeSession opens an in-process session against srv over net.Pipe.
func pipeSession(srv *Server, p SessionParams) (*Client, error) {
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	return NewClientConnTimeout(cs, p, 0)
}

// runVerifiedSession streams nBlocks of p.BlockSamples through the daemon
// and compares every output block bit-for-bit against a solo reference
// chain built from the same seed and the daemon's granted amplification.
// A non-nil served runs once, after the first block's round trip.
func runVerifiedSession(srv *Server, p SessionParams, nBlocks int, served func()) error {
	c, err := pipeSession(srv, p)
	if err != nil {
		return err
	}
	ref, refCancel := BuildSessionChain(p, c.Accept().AmpDB)
	src := rng.New(p.Seed ^ 0x77)
	n := p.BlockSamples
	tx := src.NoiseVector(nBlocks*n, 1)
	rx := src.NoiseVector(nBlocks*n, 1)
	out := make([]complex128, n)
	want := make([]complex128, n)
	for b := 0; b < nBlocks; b++ {
		off := b * n
		if err := c.Process(out, rx[off:off+n], tx[off:off+n]); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
		copy(want, rx[off:off+n])
		refCancel.SetReference(tx[off : off+n])
		ref.Process(want)
		for j := range want {
			if out[j] != want[j] {
				return fmt.Errorf("seed %d block %d sample %d: daemon %v, solo %v (bit-exact required)",
					p.Seed, b, j, out[j], want[j])
			}
		}
		if b == 0 && served != nil {
			served()
		}
	}
	st, err := c.Close()
	if err != nil {
		return err
	}
	if st.Blocks != uint64(nBlocks) || st.Samples != uint64(nBlocks*n) {
		return fmt.Errorf("stats = %+v, want %d blocks / %d samples", st, nBlocks, nBlocks*n)
	}
	return nil
}

// TestClientStream checks the served-session bit-identity check itself:
// a faithful session verifies every block, a session whose local replica
// is built at a different grant fails on the first block with
// ErrNotBitExact, and a dead connection fails as an exchange error.
func TestClientStream(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	c, err := pipeSession(srv, testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	if served, err := c.Stream(rng.New(1), 3, true); served != 3 || err != nil {
		t.Fatalf("faithful stream: served %d, err %v; want 3, nil", served, err)
	}
	c.accept.AmpDB += 1 // the local replica now runs at another grant
	served, err := c.Stream(rng.New(2), 3, true)
	if served != 1 || !errors.Is(err, ErrNotBitExact) {
		t.Fatalf("mismatched stream: served %d, err %v; want 1 and ErrNotBitExact", served, err)
	}
	if served, err := c.Stream(rng.New(3), 3, false); served != 3 || err != nil {
		t.Fatalf("unverified stream: served %d, err %v; want 3, nil", served, err)
	}
	c.conn.Close()
	served, err = c.Stream(rng.New(4), 3, true)
	if served != 0 || err == nil || errors.Is(err, ErrNotBitExact) {
		t.Fatalf("stream over a closed conn: served %d, err %v; want 0 and an exchange error", served, err)
	}
}

// TestConcurrentSessionsBitIdentical is the daemon's core correctness
// property: N concurrent sessions, each run inline on its own connection
// handler, and every session's output is bit-identical to its own solo
// chain. The staggered case churns membership: each session starts once
// the previous one has served its first block, and sessions of different
// block sizes and lengths end at different times, so admissions and
// releases interleave with other sessions' blocks. Every served block
// must count once in the pipeline.* metrics the daemon emits. Runs under
// -race via the Makefile race target.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	type shape struct{ blockSamples, blocks int }
	cases := []struct {
		name    string
		shapes  []shape
		stagger bool
	}{
		{"uniform", []shape{{256, 6}, {256, 6}, {256, 6}, {256, 6}}, false},
		{"staggered_churn", []shape{{32, 9}, {256, 3}, {100, 12}, {1024, 5}, {64, 7}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, reg := newTestServer(t, DefaultConfig())
			nSessions := uint64(len(tc.shapes))
			var blocks, samples uint64
			errc := make(chan error, len(tc.shapes))
			prev := make(chan struct{})
			close(prev)
			for i, sh := range tc.shapes {
				p := testParams(int64(100 + i))
				p.BlockSamples = sh.blockSamples
				blocks += uint64(sh.blocks)
				samples += uint64(sh.blocks * sh.blockSamples)
				started := make(chan struct{})
				wait := prev
				if tc.stagger {
					prev = started
				}
				go func(nBlocks int) {
					<-wait
					served := false
					err := runVerifiedSession(srv, p, nBlocks, func() { served = true; close(started) })
					if !served {
						close(started)
					}
					errc <- err
				}(sh.blocks)
			}
			for range tc.shapes {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			// The daemon releases before it writes STATS (the wire Release
			// contract), so the client can return from Close before the
			// handler has counted the STATS frame; wait for the handlers to
			// unwind before reading terminal counters.
			waitFor(t, "all sessions to release", func() bool { return srv.Sessions() == 0 })
			waitFor(t, "all completions to be counted", func() bool {
				return reg.Counter("relayd.sessions_completed", "sessions").Value() == nSessions
			})
			waitFor(t, "all stats frames to be counted", func() bool {
				return reg.Counter("relayd.frames_out", "frames").Value() == blocks+nSessions
			})
			checks := []struct {
				name string
				want uint64
			}{
				{"relayd.sessions_admitted", nSessions},
				{"relayd.sessions_completed", nSessions},
				{"relayd.frames_in", blocks + nSessions},  // DATA + DONE
				{"relayd.frames_out", blocks + nSessions}, // OUT + STATS
				{"pipeline.blocks", blocks},
				{"pipeline.samples", samples},
				// Each served block is a sweep of one session.
				{"pipeline.batch.sweeps", blocks},
				{"pipeline.batch.sessions", blocks},
				// Cancel and cnf_pre both take the planar kernel at every
				// block size here (all >= 32 samples).
				{"pipeline.soa_blocks", 2 * blocks},
			}
			for _, c := range checks {
				if got := reg.Counter(c.name, "x").Value(); got != c.want {
					t.Errorf("%s = %d, want %d", c.name, got, c.want)
				}
			}
			calls := map[string]uint64{}
			for _, tm := range reg.Snapshot().Timings {
				calls[tm.Stage] = tm.Calls
			}
			for _, stage := range pipeline.SessionStageNames() {
				name := "pipeline.relayd." + stage
				if calls[name] != blocks {
					t.Errorf("%s calls = %d, want %d", name, calls[name], blocks)
				}
			}
		})
	}
}

// TestAdmissionRefusalAtResidualBudgetBoundary mirrors the daemon's
// admissions into a local uncapped strict Gate fed the same sessions in
// the same order: the daemon must refuse at exactly the admission the
// mirror refuses, with the budget refusal code, and releasing one
// admitted session must reopen exactly one slot.
func TestAdmissionRefusalAtResidualBudgetBoundary(t *testing.T) {
	alone := relay.ChooseAmplificationResidualDB(relay.SessionBudget{
		CancellationDB: 55, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 52}, 0, true)
	cfg := DefaultConfig()
	cfg.MaxSessions = 0 // only the physics gate refuses
	cfg.MinAmpDB = alone.AmpDB - 2
	srv, reg := newTestServer(t, cfg)
	mirror := NewGate(0, cfg.MinAmpDB, false)

	var clients []*Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	refusedAt := -1
	for i := 0; i < 64; i++ {
		key := strconv.Itoa(i)
		dec, _, mirrorErr := mirror.Admit(key, noisyParams(int64(i)).budget())
		c, err := pipeSession(srv, noisyParams(int64(i)))
		if mirrorErr == nil {
			if err != nil {
				t.Fatalf("admission %d: mirror admitted at %.3f dB, daemon refused: %v", i, dec.AmpDB, err)
			}
			if c.Accept().AmpDB != dec.AmpDB {
				t.Fatalf("admission %d: daemon granted %v dB, mirror %v dB (must be bit-exact)",
					i, c.Accept().AmpDB, dec.AmpDB)
			}
			clients = append(clients, c)
			continue
		}
		// The mirror refused: the daemon must too, with the budget code.
		if err == nil {
			t.Fatalf("admission %d: mirror refused (%v), daemon accepted", i, mirrorErr)
		}
		var ref *Refuse
		if !errors.As(err, &ref) || ref.Code != RefuseBudget {
			t.Fatalf("admission %d: want *Refuse code %q, got %v", i, RefuseBudget, err)
		}
		refusedAt = i
		break
	}
	if refusedAt < 1 {
		t.Fatalf("budget never refused within 64 identical noisy sessions (refusedAt=%d)", refusedAt)
	}
	if got := reg.Counter("relayd.sessions_refused.budget", "sessions").Value(); got != 1 {
		t.Fatalf("relayd.sessions_refused.budget = %d, want 1", got)
	}

	// Release the last admitted session on both sides: the same candidate
	// must now be admitted, with the mirror's grant.
	last := len(clients) - 1
	if _, err := clients[last].Close(); err != nil {
		t.Fatalf("closing admitted session: %v", err)
	}
	clients = clients[:last]
	mirror.Release(strconv.Itoa(last))
	waitFor(t, "released session to leave the daemon", func() bool { return srv.Sessions() == last })

	dec, _, mirrorErr := mirror.Admit("retry", noisyParams(999).budget())
	if mirrorErr != nil {
		t.Fatalf("mirror refused the retry after release: %v", mirrorErr)
	}
	c, err := pipeSession(srv, noisyParams(999))
	if err != nil {
		t.Fatalf("daemon refused the retry after release: %v", err)
	}
	if c.Accept().AmpDB != dec.AmpDB {
		t.Fatalf("retry granted %v dB, mirror %v dB", c.Accept().AmpDB, dec.AmpDB)
	}
	clients = append(clients, c)
}

// TestDegradeMode checks the soft admission policy end to end: the
// daemon's (grant, degraded) pair must bit-match a mirrored uncapped
// degrading Gate fed the same sequence, and degraded admissions
// must be flagged in the ACCEPT frame and the metrics. The first
// session is PA-bound, so its shared-floor bound has slack; the
// heavy-residual second session's own grant would break that bound, and
// the daemon degrades it to the largest grant the first tolerates, as in
// TestGateGolden's sequence. The noisy third finds no such grant.
func TestDegradeMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Degrade = true
	cfg.MinAmpDB = 3
	srv, reg := newTestServer(t, cfg)
	mirror := NewGate(0, cfg.MinAmpDB, true)

	paBound := testParams(0)
	paBound.CancellationDB, paBound.RDAttenDB, paBound.PAHeadroomDB, paBound.RxOverNoiseDB = 95, 40, 10, 30
	heavy := testParams(1)
	heavy.CancellationDB, heavy.RDAttenDB, heavy.PAHeadroomDB, heavy.RxOverNoiseDB = 40, 60, 40, 60

	degradedSeen := uint64(0)
	var clients []*Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i, p := range []SessionParams{paBound, heavy, noisyParams(2)} {
		dec, degraded, mirrorErr := mirror.Admit(strconv.Itoa(i), p.budget())
		c, err := pipeSession(srv, p)
		if mirrorErr != nil {
			if err == nil {
				t.Fatalf("admission %d: mirror refused (%v), daemon accepted", i, mirrorErr)
			}
			break
		}
		if err != nil {
			t.Fatalf("admission %d: mirror admitted, daemon refused: %v", i, err)
		}
		acc := c.Accept()
		if acc.AmpDB != dec.AmpDB || acc.Degraded != degraded {
			t.Fatalf("admission %d: daemon (%v dB, degraded=%v), mirror (%v dB, degraded=%v)",
				i, acc.AmpDB, acc.Degraded, dec.AmpDB, degraded)
		}
		if degraded {
			degradedSeen++
			if acc.AmpBound != "budget" {
				t.Fatalf("degraded grant reports bound %q, want \"budget\"", acc.AmpBound)
			}
		}
		clients = append(clients, c)
	}
	if degradedSeen == 0 {
		t.Fatal("degrade policy never engaged for this session sequence")
	}
	if got := reg.Counter("relayd.sessions_degraded", "sessions").Value(); got != degradedSeen {
		t.Fatalf("relayd.sessions_degraded = %d, want %d", got, degradedSeen)
	}
}

// TestGracefulDrain pins the drain contract: draining refuses new
// sessions, in-flight sessions keep processing (bit-exact) until they
// finish, and a flushed session is accounted.
func TestGracefulDrain(t *testing.T) {
	srv, reg := newTestServer(t, DefaultConfig())
	p := testParams(7)
	c, err := pipeSession(srv, p)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	ref, refCancel := BuildSessionChain(p, c.Accept().AmpDB)
	src := rng.New(7 ^ 0x77)
	n := p.BlockSamples
	tx := src.NoiseVector(4*n, 1)
	rx := src.NoiseVector(4*n, 1)
	out := make([]complex128, n)
	want := make([]complex128, n)
	process := func(b int) {
		t.Helper()
		off := b * n
		if err := c.Process(out, rx[off:off+n], tx[off:off+n]); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		copy(want, rx[off:off+n])
		refCancel.SetReference(tx[off : off+n])
		ref.Process(want)
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("block %d sample %d: daemon %v, solo %v", b, j, out[j], want[j])
			}
		}
	}
	process(0)
	process(1)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, "daemon to enter draining", srv.Draining)

	// New sessions are refused with the draining code.
	if _, err := pipeSession(srv, testParams(8)); err == nil {
		t.Fatal("daemon admitted a session while draining")
	} else {
		var refz *Refuse
		if !errors.As(err, &refz) || refz.Code != RefuseDraining {
			t.Fatalf("want *Refuse code %q, got %v", RefuseDraining, err)
		}
	}

	// The in-flight session still processes, bit-exact, and completes.
	process(2)
	process(3)
	st, err := c.Close()
	if err != nil {
		t.Fatalf("close during drain: %v", err)
	}
	if st.Blocks != 4 {
		t.Fatalf("stats blocks = %d, want 4", st.Blocks)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if got := reg.Counter("relayd.drain_flushed_sessions", "sessions").Value(); got != 1 {
		t.Fatalf("relayd.drain_flushed_sessions = %d, want 1", got)
	}
	if got := reg.Counter("relayd.sessions_refused.draining", "sessions").Value(); got != 1 {
		t.Fatalf("relayd.sessions_refused.draining = %d, want 1", got)
	}
}

// TestDrainDeadlineForceCloses covers the other drain arm: a session that
// never finishes is force-closed once the drain context expires.
func TestDrainDeadlineForceCloses(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	if _, err := pipeSession(srv, testParams(11)); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("Sessions() = %d after forced drain, want 0", srv.Sessions())
	}
}

// TestIdleTimeoutEviction: a session that goes quiet longer than
// IdleTimeout is evicted and accounted.
func TestIdleTimeoutEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTimeout = 50 * time.Millisecond
	srv, reg := newTestServer(t, cfg)
	if _, err := pipeSession(srv, testParams(3)); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	evicted := reg.Counter("relayd.sessions_evicted_idle", "sessions")
	waitFor(t, "idle session to be evicted", func() bool { return evicted.Value() == 1 })
	if srv.Sessions() != 0 {
		t.Fatalf("Sessions() = %d after eviction, want 0", srv.Sessions())
	}
}

// TestSessionLimitRefusal: the cap refuses with the session_limit code
// and does not touch the physics budget.
func TestSessionLimitRefusal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSessions = 2
	srv, reg := newTestServer(t, cfg)
	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := pipeSession(srv, testParams(int64(20+i)))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	_, err := pipeSession(srv, testParams(30))
	var ref *Refuse
	if !errors.As(err, &ref) || ref.Code != RefuseSessionLimit {
		t.Fatalf("want *Refuse code %q, got %v", RefuseSessionLimit, err)
	}
	if got := reg.Counter("relayd.sessions_refused.limit", "sessions").Value(); got != 1 {
		t.Fatalf("relayd.sessions_refused.limit = %d, want 1", got)
	}
	for _, c := range clients {
		c.Close()
	}
}

// TestThrottleEngages: a tight session rate forces at least one throttle
// wait without corrupting the stream.
func TestThrottleEngages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SessionRate = 50e3 // 256-sample blocks at ~195 blocks/s
	cfg.BurstSamples = 256
	srv, reg := newTestServer(t, cfg)
	if err := runVerifiedSession(srv, testParams(41), 4, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("relayd.throttle_waits", "waits").Value(); got == 0 {
		t.Fatal("relayd.throttle_waits = 0, want > 0 at 3 blocks over burst")
	}
}

// waitFor polls cond until it holds or the deadline passes. The daemon's
// terminal transitions are asynchronous (handler goroutines unwind after
// the client sees its last frame), so tests poll rather than assume.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionStageNamesMatchChain is the drift guard for the stage list
// ffbench reads its pipeline.<stage>_frac keys from: it must name the
// stages of the chain the daemon actually builds, in order.
func TestSessionStageNamesMatchChain(t *testing.T) {
	ch, _ := BuildSessionChain(SessionParams{
		SampleRateHz: 20e6, BlockSamples: 64, CancelTaps: 8, CNFTaps: 4, Seed: 1,
	}, 10)
	names := pipeline.SessionStageNames()
	stages := ch.Stages()
	if len(stages) != len(names) {
		t.Fatalf("chain has %d stages, SessionStageNames lists %d", len(stages), len(names))
	}
	for i, st := range stages {
		if st.Name() != names[i] {
			t.Errorf("stage %d: chain %q, SessionStageNames %q", i, st.Name(), names[i])
		}
	}
}
