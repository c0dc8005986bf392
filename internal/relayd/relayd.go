// Package relayd implements a long-running FastForward relay daemon.
//
// The daemon accepts concurrent IQ streams (length-prefixed frames over
// any net.Conn — TCP in production, net.Pipe in tests), instantiates one
// pipeline session chain per stream, and runs each block through that
// chain inline on the stream's own connection handler: no shared
// scheduler, and a chain is only ever touched by its handler goroutine.
// Output is bit-identical to running each session through its own solo
// chain.
//
// Admission is physics-aware: every HELLO declares its Sec 3.5 link
// budget (cancellation, R→D attenuation, PA headroom, RX-over-noise) and
// the daemon admits it only if the aggregate residual rule still holds
// for every already-admitted session (relay.BudgetAccount). Grants are
// sticky: an admitted session keeps its amplification for its lifetime.
// Throughput is bounded by per-session and global token buckets measured
// in samples.
//
// Lifecycle: sessions idle out (IdleTimeout), reads and writes carry
// deadlines, and SIGTERM-style drain stops admitting while in-flight
// blocks flush. The status endpoint (see status.go) exposes the obs
// snapshot and per-session state as JSON.
package relayd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
)

// Config tunes one Server. The zero value of a limit disables it; start
// from DefaultConfig for production-shaped defaults.
type Config struct {
	// MaxSessions caps concurrently admitted sessions (<= 0: unlimited).
	MaxSessions int
	// MinAmpDB is the least useful amplification grant; candidates whose
	// shared-floor grant falls below it are refused (relay.BudgetAccount).
	MinAmpDB float64
	// Degrade selects the soft admission policy: instead of refusing a
	// candidate that would violate an admitted session's sticky grant,
	// bisect the candidate's own amplification down until everyone fits
	// (relay.BudgetAccount.AdmitDegraded).
	Degrade bool
	// SessionRate / GlobalRate bound throughput in samples per second,
	// per session and across all sessions (<= 0: unlimited).
	SessionRate float64
	GlobalRate  float64
	// BurstSamples sizes the token buckets (default: one max block).
	BurstSamples int
	// IdleTimeout evicts a session that sends no frame for this long
	// (<= 0: never). ReadTimeout bounds reading one frame's payload once
	// its header arrived; WriteTimeout bounds each outbound frame
	// (<= 0: unbounded).
	IdleTimeout  time.Duration
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Registry receives the relayd.* metrics; nil gets a private one.
	Registry *obs.Registry
}

// DefaultConfig is the documented production-shaped starting point.
func DefaultConfig() Config {
	return Config{
		MaxSessions:  16,
		MinAmpDB:     0,
		BurstSamples: 1 << 16,
		IdleTimeout:  30 * time.Second,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
	}
}

// metrics holds the daemon's obs handles; every name here is registered
// in internal/obs/METRICS.txt and documented in OBSERVABILITY.md.
type metrics struct {
	admitted        *obs.Counter
	degraded        *obs.Counter
	completed       *obs.Counter
	evictedIdle     *obs.Counter
	refusedBudget   *obs.Counter
	refusedLimit    *obs.Counter
	refusedDraining *obs.Counter
	refusedBadHello *obs.Counter
	ioErrors        *obs.Counter
	deadlineErrors  *obs.Counter
	statusErrors    *obs.Counter
	framesIn        *obs.Counter
	framesOut       *obs.Counter
	infoQueries     *obs.Counter
	throttleWaits   *obs.Counter
	drainFlushed    *obs.Counter
	active          *obs.Gauge
	residualLoad    *obs.Gauge
	draining        *obs.Gauge
	ampGrantedDB    *obs.Histogram
	sessionBlocks   *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		admitted:        reg.Counter("relayd.sessions_admitted", "sessions"),
		degraded:        reg.Counter("relayd.sessions_degraded", "sessions"),
		completed:       reg.Counter("relayd.sessions_completed", "sessions"),
		evictedIdle:     reg.Counter("relayd.sessions_evicted_idle", "sessions"),
		refusedBudget:   reg.Counter("relayd.sessions_refused.budget", "sessions"),
		refusedLimit:    reg.Counter("relayd.sessions_refused.limit", "sessions"),
		refusedDraining: reg.Counter("relayd.sessions_refused.draining", "sessions"),
		refusedBadHello: reg.Counter("relayd.sessions_refused.bad_hello", "sessions"),
		ioErrors:        reg.Counter("relayd.io_errors", "errors"),
		deadlineErrors:  reg.Counter("relayd.deadline_errors", "errors"),
		statusErrors:    reg.Counter("relayd.status_errors", "errors"),
		framesIn:        reg.Counter("relayd.frames_in", "frames"),
		framesOut:       reg.Counter("relayd.frames_out", "frames"),
		infoQueries:     reg.Counter("relayd.info_queries", "queries"),
		throttleWaits:   reg.Counter("relayd.throttle_waits", "waits"),
		drainFlushed:    reg.Counter("relayd.drain_flushed_sessions", "sessions"),
		active:          reg.Gauge("relayd.active_sessions", "sessions"),
		residualLoad:    reg.Gauge("relayd.residual_load", "load"),
		draining:        reg.Gauge("relayd.draining", "bool"),
		ampGrantedDB:    reg.Histogram("relayd.amp_granted_db", "dB", obs.LinearBuckets(0, 5, 12)),
		sessionBlocks:   reg.Histogram("relayd.session_blocks", "blocks", obs.LinearBuckets(0, 64, 16)),
	}
}

// Server is the relay daemon: admission control and per-connection
// session handlers, each running its own session's chain.
type Server struct {
	cfg Config
	reg *obs.Registry
	m   metrics

	mu        sync.Mutex
	sessions  map[uint64]*Session
	conns     map[net.Conn]struct{}
	listeners []net.Listener
	nextID    uint64
	gate      *Gate
	po        *pipeline.Obs

	global *tokenBucket

	draining atomic.Bool
	wg       sync.WaitGroup
	startNs  int64
}

// New builds a Server; it starts no goroutine. Callers then feed it
// connections via Serve (a listener's accept loop) or ServeConn (one
// connection, e.g. a net.Pipe end in tests), and shut down with Drain
// and/or Close.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.New()
	}
	if cfg.BurstSamples <= 0 {
		cfg.BurstSamples = 1 << 16
	}
	return &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		m:        newMetrics(cfg.Registry),
		sessions: make(map[uint64]*Session),
		conns:    make(map[net.Conn]struct{}),
		gate:     NewGate(cfg.MaxSessions, cfg.MinAmpDB, cfg.Degrade),
		po:       pipeline.NewObs(cfg.Registry),
		global:   newTokenBucket(cfg.GlobalRate, float64(cfg.BurstSamples)),
		startNs:  obs.NowNanos(),
	}
}

// Registry returns the registry the daemon's metrics live in.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Sessions returns the number of currently admitted sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve accepts connections from ln until the listener is closed (by
// Close, or externally), spawning one handler per connection. Transient
// accept errors back off exponentially; a closed listener returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	var bo Backoff
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(bo.Next())
				continue
			}
			return err
		}
		bo.Reset()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// ServeConn runs one connection's session synchronously: handshake,
// stream, cleanup. It is exactly the path Serve runs per accepted
// connection, and the test seam for it: the relayd tests' pipeSession
// serves over net.Pipe through it, which is how
// TestConcurrentSessionsBitIdentical pins the daemon-output bit-identity
// contract (DESIGN.md §10) without a listener.
func (s *Server) ServeConn(conn net.Conn) {
	s.wg.Add(1)
	defer s.wg.Done()
	s.handleConn(conn)
}

// Drain stops admitting sessions (new HELLOs are refused with code
// "draining") and waits for every in-flight session to finish its stream.
// If ctx expires first, remaining connections are force-closed and
// ctx.Err() is returned once their handlers unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.m.draining.Set(1)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close shuts the daemon down: listeners and connections close and
// handlers unwind. Safe after Drain and idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.m.draining.Set(1)
	s.mu.Lock()
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.mu.Unlock()
	s.closeConns()
	s.wg.Wait()
}

func (s *Server) closeConns() {
	// Snapshot under the lock, close outside it: conn.Close can block on
	// a wedged peer, and nothing that shares s.mu should wait on that.
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) trackConn(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// refuse emits a REFUSE frame. The session is over either way, but a
// failed write is still counted so a flapping peer shows up in metrics.
func (s *Server) refuse(conn net.Conn, code, detail string) {
	if !s.setWriteDeadline(conn) {
		return
	}
	if err := writeJSONFrame(conn, FrameRefuse, Refuse{Code: code, Detail: detail}); err != nil {
		s.m.ioErrors.Inc(0)
	}
}

// setWriteDeadline arms the write deadline and reports whether the conn
// is still usable. A setter error means the conn is already dead: count
// it, close the conn, and have the caller bail instead of writing into
// an unbounded block.
func (s *Server) setWriteDeadline(conn net.Conn) bool {
	if s.cfg.WriteTimeout <= 0 {
		return true
	}
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		s.m.deadlineErrors.Inc(0)
		conn.Close()
		return false
	}
	return true
}

// armReadDeadline is the read-side twin of setWriteDeadline: a zero time
// clears the deadline, and a setter error closes the conn and counts.
func (s *Server) armReadDeadline(conn net.Conn, t time.Time) bool {
	if err := conn.SetReadDeadline(t); err != nil {
		s.m.deadlineErrors.Inc(0)
		conn.Close()
		return false
	}
	return true
}

// admit runs the admission path under the server lock: drain state, then
// the extracted Gate (session cap + aggregate Sec 3.5 residual budget).
// On success the session is registered, its chain is instrumented on the
// daemon registry, and the post-admission residual load is returned for
// the ACCEPT frame.
func (s *Server) admit(p SessionParams, remote string) (*Session, float64, *Refuse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, 0, &Refuse{Code: RefuseDraining, Detail: "daemon is draining"}
	}
	id := s.nextID
	s.nextID++
	key := strconv.FormatUint(id, 10)
	dec, degraded, ref := s.gate.Admit(key, p.budget())
	if ref != nil {
		return nil, 0, ref
	}
	sess := &Session{
		ID:       id,
		Remote:   remote,
		Params:   p,
		Grant:    dec,
		Degraded: degraded,
		shard:    obs.ShardForSeed(p.Seed),
		startNs:  obs.NowNanos(),
	}
	sess.lastActiveNs.Store(sess.startNs)
	// Session chains come with their bit-exact block kernels armed by
	// construction, so the daemon runs the same arithmetic as the solo
	// chain a client rebuilds from the seed; nothing is armed here.
	sess.chain, sess.cancel = BuildSessionChain(p, dec.AmpDB)
	sess.chain.Instrument(s.po, sess.shard)
	s.sessions[id] = sess
	s.m.admitted.Inc(sess.shard)
	if degraded {
		s.m.degraded.Inc(sess.shard)
	}
	s.m.ampGrantedDB.Observe(sess.shard, dec.AmpDB)
	s.m.active.Set(float64(len(s.sessions)))
	load := s.gate.ResidualLoad()
	s.m.residualLoad.Set(load)
	return sess, load, nil
}

// release unwinds admission: the session leaves the books, its budget
// slot reopens, and its terminal state is accounted. Idempotent: the
// DONE path releases before writing STATS (so a client that saw the
// STATS frame knows the slot is already free), and the handler's
// unconditional cleanup call then finds the session gone.
func (s *Server) release(sess *Session, completed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[sess.ID]; !ok {
		return
	}
	sess.state.Store(int32(StateClosed))
	delete(s.sessions, sess.ID)
	s.gate.Release(strconv.FormatUint(sess.ID, 10))
	s.m.active.Set(float64(len(s.sessions)))
	s.m.residualLoad.Set(s.gate.ResidualLoad())
	s.m.sessionBlocks.Observe(sess.shard, float64(sess.Blocks()))
	if completed {
		s.m.completed.Inc(sess.shard)
		if s.draining.Load() {
			s.m.drainFlushed.Inc(sess.shard)
		}
	}
}

// errDeadline reports a failed deadline arm; the conn is already closed
// and counted by the time a caller sees it.
var errDeadline = errors.New("relayd: failed to arm conn deadline")

// readSessionFrame reads one frame through br with the two-phase
// deadline: the idle timeout governs waiting for the 5-byte header
// (expiry means the peer went quiet — idle=true), the read timeout
// governs the payload once the header landed (expiry is an I/O error).
// The payload is a view of br's window, as readFrame's is.
func (s *Server) readSessionFrame(conn net.Conn, br *bufio.Reader) (typ byte, payload []byte, idle bool, err error) {
	idleBy := time.Time{}
	if s.cfg.IdleTimeout > 0 {
		idleBy = time.Now().Add(s.cfg.IdleTimeout)
	}
	if !s.armReadDeadline(conn, idleBy) {
		return 0, nil, false, errDeadline
	}
	typ, n, err := readHeader(br)
	if err != nil {
		return 0, nil, isTimeout(err), err
	}
	if s.cfg.ReadTimeout > 0 {
		if !s.armReadDeadline(conn, time.Now().Add(s.cfg.ReadTimeout)) {
			return 0, nil, false, errDeadline
		}
	}
	payload, err = readPayload(br, n)
	return typ, payload, false, err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleConn runs one connection end to end: HELLO, admission, the DATA
// stream, DONE/STATS, cleanup. Every exit path releases whatever was
// admitted.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	s.trackConn(conn, true)
	defer s.trackConn(conn, false)

	// HELLO must arrive within the read timeout, and fit the control
	// window: nothing is sized by a peer before it is admitted.
	br := bufio.NewReaderSize(conn, controlWindow)
	if s.cfg.ReadTimeout > 0 {
		if !s.armReadDeadline(conn, time.Now().Add(s.cfg.ReadTimeout)) {
			return
		}
	}
	typ, payload, err := readFrame(br)
	if err != nil {
		s.m.ioErrors.Inc(0)
		return
	}
	if typ == FrameQuery {
		s.serveQuery(conn, br)
		return
	}
	if typ != FrameHello {
		s.m.ioErrors.Inc(0)
		return
	}
	var p SessionParams
	if err := json.Unmarshal(payload, &p); err != nil {
		s.m.refusedBadHello.Inc(0)
		s.refuse(conn, RefuseBadHello, "hello is not valid JSON: "+err.Error())
		return
	}
	if err := p.Validate(); err != nil {
		s.m.refusedBadHello.Inc(0)
		s.refuse(conn, RefuseBadHello, err.Error())
		return
	}

	sess, load, ref := s.admit(p, conn.RemoteAddr().String())
	if ref != nil {
		switch ref.Code {
		case RefuseDraining:
			s.m.refusedDraining.Inc(0)
		case RefuseSessionLimit:
			s.m.refusedLimit.Inc(0)
		default:
			s.m.refusedBudget.Inc(0)
		}
		s.refuse(conn, ref.Code, ref.Detail)
		return
	}

	if !s.setWriteDeadline(conn) {
		s.release(sess, false)
		return
	}
	if err := writeJSONFrame(conn, FrameAccept, Accept{
		SessionID:           sess.ID,
		AmpDB:               sess.Grant.AmpDB,
		AmpBound:            sess.Grant.Bound.String(),
		StabilityHeadroomDB: sess.Grant.StabilityHeadroomDB,
		Degraded:            sess.Degraded,
		ResidualLoad:        load,
	}); err != nil {
		s.m.ioErrors.Inc(sess.shard)
		s.release(sess, false)
		return
	}

	// The session's window is exactly one DATA frame.
	completed := s.streamSession(conn, rewindow(conn, br, frameHeaderLen+2*p.BlockSamples*SampleBytes), sess)
	s.release(sess, completed)
}

// serveQuery runs a control connection: every QUERY frame is answered
// with one INFO snapshot of the admission state, and the connection stays
// open for further queries (the fleet scheduler polls residual load over
// one long-lived conn). The idle timeout governs the wait for the next
// QUERY exactly as it governs a session's next DATA frame; any other
// frame type is a protocol violation.
func (s *Server) serveQuery(conn net.Conn, br *bufio.Reader) {
	for {
		if !s.answerQuery(conn) {
			return
		}
		typ, _, idle, err := s.readSessionFrame(conn, br)
		if err != nil {
			if !idle {
				s.m.ioErrors.Inc(0)
			}
			return
		}
		if typ != FrameQuery {
			s.refuse(conn, RefuseProtocol, "unexpected frame type "+strconv.Itoa(int(typ))+" on query connection")
			s.m.ioErrors.Inc(0)
			return
		}
	}
}

// answerQuery writes one INFO frame and reports whether the conn is still
// usable.
func (s *Server) answerQuery(conn net.Conn) bool {
	info := Info{
		Active:       s.gate.Active(),
		MaxSessions:  s.gate.MaxSessions(),
		MinAmpDB:     s.gate.MinAmpDB(),
		ResidualLoad: s.gate.ResidualLoad(),
		Draining:     s.draining.Load(),
	}
	if !s.setWriteDeadline(conn) {
		return false
	}
	if err := writeJSONFrame(conn, FrameInfo, info); err != nil {
		s.m.ioErrors.Inc(0)
		return false
	}
	s.m.infoQueries.Inc(0)
	s.m.framesOut.Inc(0)
	return true
}

// streamSession runs the admitted session's frame loop and reports
// whether the stream ended cleanly with DONE.
func (s *Server) streamSession(conn net.Conn, br *bufio.Reader, sess *Session) bool {
	n := sess.Params.BlockSamples
	rx := make([]complex128, n)
	refSamples := make([]complex128, n)
	out := make([]byte, frameHeaderLen+n*SampleBytes) // OUT frame: header, then samples
	bucket := newTokenBucket(s.cfg.SessionRate, float64(s.cfg.BurstSamples))

	for {
		typ, payload, idle, err := s.readSessionFrame(conn, br)
		if err != nil {
			switch {
			case idle:
				s.m.evictedIdle.Inc(sess.shard)
			case errors.Is(err, errFrameTooLarge):
				// An admitted client learns why, as for a DATA frame of
				// the wrong size; nothing of the frame is read.
				s.refuse(conn, RefuseProtocol, "frame over the session's "+strconv.Itoa(br.Size())+"-byte window")
				s.m.ioErrors.Inc(sess.shard)
			default:
				s.m.ioErrors.Inc(sess.shard)
			}
			return false
		}
		s.m.framesIn.Inc(sess.shard)
		switch typ {
		case FrameData:
			if len(payload) != 2*n*SampleBytes {
				s.refuse(conn, RefuseProtocol,
					"data frame carries "+strconv.Itoa(len(payload))+
						" bytes, want "+strconv.Itoa(2*n*SampleBytes))
				s.m.ioErrors.Inc(sess.shard)
				return false
			}
			s.throttle(bucket, float64(n), sess)
			bytesToSamples(rx, payload[:n*SampleBytes])
			bytesToSamples(refSamples, payload[n*SampleBytes:])
			sess.cancel.SetReference(refSamples)
			sess.state.Store(int32(StateStreaming))
			// A served block is a round of one session (the
			// pipeline.batch.* round counters).
			samplesToBytes(out[frameHeaderLen:], sess.chain.Process(rx))
			s.po.BatchSweeps.Inc(sess.shard)
			s.po.BatchSessions.Inc(sess.shard)
			if !s.setWriteDeadline(conn) {
				return false
			}
			if err := writeFrame(conn, FrameOut, out); err != nil {
				s.m.ioErrors.Inc(sess.shard)
				return false
			}
			s.m.framesOut.Inc(sess.shard)
			sess.blocks.Add(1)
			sess.samples.Add(uint64(n))
			sess.lastActiveNs.Store(obs.NowNanos())
		case FrameDone:
			// Release BEFORE answering: a client that has read the STATS
			// frame must be able to rely on the budget slot being free —
			// the fleet's make-before-break accounting over the wire needs
			// Release to be synchronous, not racing the handler teardown.
			s.release(sess, true)
			if !s.setWriteDeadline(conn) {
				return false
			}
			if err := writeJSONFrame(conn, FrameStats, Stats{
				SessionID: sess.ID,
				Blocks:    sess.Blocks(),
				Samples:   sess.Samples(),
				AmpDB:     sess.Grant.AmpDB,
			}); err != nil {
				s.m.ioErrors.Inc(sess.shard)
				return false
			}
			s.m.framesOut.Inc(sess.shard)
			return true
		default:
			s.refuse(conn, RefuseProtocol, "unexpected frame type "+strconv.Itoa(int(typ)))
			s.m.ioErrors.Inc(sess.shard)
			return false
		}
	}
}

// throttle charges one block of samples to the session and global token
// buckets, sleeping out any deficit. Each sleep counts one throttle wait.
func (s *Server) throttle(session *tokenBucket, samples float64, sess *Session) {
	for _, tb := range [2]*tokenBucket{session, s.global} {
		for {
			ok, waitNs := tb.take(samples, obs.NowNanos())
			if ok {
				break
			}
			s.m.throttleWaits.Inc(sess.shard)
			time.Sleep(time.Duration(waitNs))
		}
	}
}
