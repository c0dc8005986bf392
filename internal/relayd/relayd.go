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
// for every already-admitted session (Gate, gate.go: the session cap, the
// shared-floor ledger and the strict-or-degrade policy in one admission
// domain). Grants are sticky: an admitted session keeps its amplification
// for its lifetime.
// Throughput is bounded by per-session and global token buckets measured
// in samples.
//
// Lifecycle: a connection outlives its conversations (a QUERY, or a
// session from HELLO to STATS) and idles between them; sessions and idle
// connections idle out (IdleTimeout), reads and writes carry deadlines,
// and SIGTERM-style drain stops admitting and closes idle connections
// while in-flight blocks flush. The status endpoint (see status.go)
// exposes the obs snapshot and per-session state as JSON.
package relayd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
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
	// shared-floor grant falls below it are refused (NewGate).
	MinAmpDB float64
	// Degrade selects the soft admission policy: instead of refusing a
	// candidate that would violate an admitted session's sticky grant,
	// bisect the candidate's own amplification down until everyone fits,
	// never below MinAmpDB or 0 dB (Gate.Admit).
	Degrade bool
	// SessionRate / GlobalRate bound throughput in samples per second,
	// per session and across all sessions (<= 0: unlimited).
	SessionRate float64
	GlobalRate  float64
	// BurstSamples sizes the token buckets (default: one max block).
	BurstSamples int
	// IdleTimeout evicts a session that sends no frame for this long
	// (<= 0: never). ReadTimeout bounds reading one frame's payload once
	// its header arrived, and a new connection's whole first frame from
	// the connect; WriteTimeout bounds each outbound frame
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

	mu       sync.Mutex
	sessions map[uint64]*Session
	// conns maps each open connection to whether it is idle between
	// conversations (Drain closes those).
	conns     map[net.Conn]bool
	listeners []net.Listener
	// closed is set by Close: a later Serve or ServeConn closes what it is
	// given at once.
	closed bool
	nextID uint64
	gate   *Gate
	po     *pipeline.Obs

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
		conns:    make(map[net.Conn]bool),
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
// accept errors back off exponentially; a closed listener returns nil,
// and so does a Serve called after Close, which closes ln first.
func (s *Server) Serve(ln net.Listener) error {
	if !s.addListener(ln) {
		return nil
	}
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
		if !s.trackConn(conn) {
			conn.Close()
			return nil
		}
		go s.handleConn(conn)
	}
}

// ServeConn runs one connection synchronously until it closes: every
// conversation on it, then cleanup. It is exactly the path Serve runs per
// accepted connection, and the test seam for it: the relayd tests'
// pipeSession serves over net.Pipe through it, which is how
// TestConcurrentSessionsBitIdentical pins the daemon-output bit-identity
// contract (DESIGN.md §10) without a listener. After Close it closes conn
// at once.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.trackConn(conn) {
		conn.Close()
		return
	}
	s.handleConn(conn)
}

// Drain stops admitting sessions (new HELLOs are refused with code
// "draining"), closes every connection that is idle between
// conversations, and waits for every in-flight session to finish its
// stream; a connection whose conversation ends while draining closes
// then. If ctx expires first, remaining connections are force-closed and
// ctx.Err() is returned once their handlers unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.m.draining.Set(1)
	s.closeConns(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns(false)
		<-done
		return ctx.Err()
	}
}

// Close shuts the daemon down: listeners and connections close and
// handlers unwind. Safe after Drain, idempotent, and final: a Serve or
// ServeConn that runs after it closes what it is given.
func (s *Server) Close() {
	s.draining.Store(true)
	s.m.draining.Set(1)
	s.mu.Lock()
	s.closed = true
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.mu.Unlock()
	s.closeConns(false)
	s.wg.Wait()
}

// closeConns closes the open connections, or only the idle ones.
func (s *Server) closeConns(idleOnly bool) {
	// Snapshot under the lock, close outside it: conn.Close can block on
	// a wedged peer, and nothing that shares s.mu should wait on that.
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c, idle := range s.conns {
		if idle || !idleOnly {
			conns = append(conns, c)
		}
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// addListener registers ln for Close to close, or, once Close has run,
// closes it and reports false.
func (s *Server) addListener(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return false
	}
	s.listeners = append(s.listeners, ln)
	return true
}

// trackConn registers a new connection and its handler, or reports false
// once Close has run. Registering under the lock Close takes means no
// handler starts after Close has begun waiting for them.
func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	s.conns[conn] = false
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// setIdle marks conn idle between conversations, or busy once a frame
// has arrived. Marking it idle reports false while draining: the
// connection then closes instead of waiting for another conversation.
// The check runs under the lock Drain's snapshot takes, so every idle
// connection is either closed by Drain or closes itself.
func (s *Server) setIdle(conn net.Conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idle && s.draining.Load() {
		return false
	}
	s.conns[conn] = idle
	return true
}

// refuse emits a REFUSE frame and reports whether the conn is still
// usable. A failed write is counted so a flapping peer shows up in
// metrics.
func (s *Server) refuse(conn net.Conn, code, detail string) bool {
	if !s.setWriteDeadline(conn) {
		return false
	}
	if err := writeJSONFrame(conn, FrameRefuse, Refuse{Code: code, Detail: detail}); err != nil {
		s.m.ioErrors.Inc(0)
		return false
	}
	return true
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

// readSessionHeader reads one frame header through br (readHeader: a
// frame of type bulk must declare bulkLen bytes) with the two-phase
// deadline: wait bounds waiting for the header (<= 0: unbounded; its
// expiry is reported as expired), the read timeout the payload the caller
// then reads (an I/O error).
func (s *Server) readSessionHeader(conn net.Conn, br *bufio.Reader, wait time.Duration, bulk byte, bulkLen int) (typ byte, n int, expired bool, err error) {
	by := time.Time{}
	if wait > 0 {
		by = time.Now().Add(wait)
	}
	if !s.armReadDeadline(conn, by) {
		return 0, 0, false, errDeadline
	}
	typ, n, err = readHeader(br, bulk, bulkLen)
	if err != nil {
		return typ, n, isTimeout(err), err
	}
	if s.cfg.ReadTimeout > 0 {
		if !s.armReadDeadline(conn, time.Now().Add(s.cfg.ReadTimeout)) {
			return 0, 0, false, errDeadline
		}
	}
	return typ, n, false, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// closedBetweenFrames reports a header read that failed because the
// connection closed between frames, with no byte of a next frame read:
// the peer's clean EOF, or the daemon's own close of an idle connection
// (Drain, Close). Neither is an I/O error.
func closedBetweenFrames(err error, br *bufio.Reader) bool {
	return br.Buffered() == 0 &&
		(err == io.EOF || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe))
}

// handleConn runs one connection until it closes; Serve and ServeConn
// have tracked it. Between conversations the connection is idle and reads
// HELLO, which opens a session or is refused, or QUERY, which is answered
// with INFO; every frame it reads there must fit the control window, so
// nothing is sized by a peer before it is admitted. The first frame must
// arrive within the read timeout, later ones within the idle timeout. An
// admission REFUSE or a session ended with DONE/STATS returns the
// connection to idle; a protocol REFUSE, an I/O error, idle expiry or a
// drain closes it, and a clean EOF while idle is the peer's normal close.
// Every exit path releases whatever was admitted.
func (s *Server) handleConn(conn net.Conn) {
	defer s.untrackConn(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, controlWindow)
	// The whole first frame, header and payload, is read under one read
	// timeout from the connect.
	if s.cfg.ReadTimeout > 0 && !s.armReadDeadline(conn, time.Now().Add(s.cfg.ReadTimeout)) {
		return
	}
	for first := true; ; first = false {
		var typ byte
		var n int
		var expired bool
		var err error
		if first {
			typ, n, err = readHeader(br, 0, 0) // no frame has type 0
		} else {
			if !s.setIdle(conn, true) {
				return
			}
			typ, n, expired, err = s.readSessionHeader(conn, br, s.cfg.IdleTimeout, 0, 0)
		}
		var payload []byte
		if err == nil {
			payload, err = readPayload(br, n)
		}
		if err != nil {
			// An idle connection that expires or closes between frames ends
			// normally, and a failed deadline arm is counted as such; a
			// silent new one is a failed read.
			if !expired && !closedBetweenFrames(err, br) && err != errDeadline {
				s.m.ioErrors.Inc(0)
			}
			return
		}
		s.setIdle(conn, false)
		switch typ {
		case FrameQuery:
			if !s.answerQuery(conn) {
				return
			}
		case FrameHello:
			if !s.serveSession(conn, br, payload) {
				return
			}
		default:
			s.refuse(conn, RefuseProtocol, "unexpected frame type "+strconv.Itoa(int(typ))+" on an idle connection")
			s.m.ioErrors.Inc(0)
			return
		}
	}
}

// serveSession answers one HELLO and, if it is admitted, runs the session
// to its end. It reports whether the connection is idle again: after an
// admission REFUSE, or a session that ended with DONE/STATS.
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, hello []byte) bool {
	var p SessionParams
	if err := json.Unmarshal(hello, &p); err != nil {
		s.m.refusedBadHello.Inc(0)
		return s.refuse(conn, RefuseBadHello, "hello is not valid JSON: "+err.Error())
	}
	if err := p.Validate(); err != nil {
		s.m.refusedBadHello.Inc(0)
		return s.refuse(conn, RefuseBadHello, err.Error())
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
		return s.refuse(conn, ref.Code, ref.Detail)
	}

	if !s.setWriteDeadline(conn) {
		s.release(sess, false)
		return false
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
		return false
	}

	// br may already hold the first DATA frame: a client can send it in
	// the same write as HELLO.
	completed := s.streamSession(conn, br, sess)
	s.release(sess, completed)
	return completed
}

// answerQuery writes one INFO frame and reports whether the conn is still
// usable.
func (s *Server) answerQuery(conn net.Conn) bool {
	info := Info{
		Active:       s.gate.Sessions(),
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
// whether the stream ended cleanly with DONE. A DATA payload is read into
// the sample memory (a header slot, rx, the reference), the chain runs on
// rx in place, and OUT leaves from the header slot's tail through rx.
func (s *Server) streamSession(conn net.Conn, br *bufio.Reader, sess *Session) bool {
	n := sess.Params.BlockSamples
	mem := make([]complex128, 1+2*n)
	rx, refSamples := mem[1:1+n], mem[1+n:]
	raw := sampleBytes(mem)
	data := raw[SampleBytes:]
	out := raw[SampleBytes-frameHeaderLen : SampleBytes*(1+n)]
	bucket := newTokenBucket(s.cfg.SessionRate, float64(s.cfg.BurstSamples))

	for {
		typ, size, idle, err := s.readSessionHeader(conn, br, s.cfg.IdleTimeout, FrameData, len(data))
		if err != nil {
			switch {
			case idle:
				s.m.evictedIdle.Inc(sess.shard)
			case errors.Is(err, errFrameLength):
				// An admitted client learns why; nothing of the frame is read.
				s.refuse(conn, RefuseProtocol, "frame type "+strconv.Itoa(int(typ))+" declares "+
					strconv.Itoa(size)+" bytes, not "+strconv.Itoa(len(data))+" (data) or at most "+
					strconv.Itoa(controlWindow-frameHeaderLen))
				s.m.ioErrors.Inc(sess.shard)
			default:
				s.m.ioErrors.Inc(sess.shard)
			}
			return false
		}
		s.m.framesIn.Inc(sess.shard)
		switch typ {
		case FrameData:
			if _, err := io.ReadFull(br, data); err != nil {
				s.m.ioErrors.Inc(sess.shard)
				return false
			}
			wireOrder(mem[1:])
			s.throttle(bucket, float64(n), sess)
			sess.cancel.SetReference(refSamples)
			sess.state.Store(int32(StateStreaming))
			// A served block is a round of one session (the
			// pipeline.batch.* round counters). Every session stage runs
			// in place, so OUT's samples are rx.
			sess.chain.Process(rx)
			wireOrder(rx)
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
			// DONE's payload is empty by protocol; one that carries bytes
			// has them skipped, so the next frame starts where the peer
			// meant it to.
			if _, err := br.Discard(size); err != nil {
				s.m.ioErrors.Inc(sess.shard)
				return false
			}
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
