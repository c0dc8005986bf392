package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"fastforward/internal/obs"
	"fastforward/internal/relay"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
)

// WireSpec shapes the sessions a WireEndpoint opens: the chain geometry
// every HELLO declares (the admission budget comes per-call from the
// scheduler) and the transport discipline. The spec is deliberately
// identical for every client — assignment books must depend only on the
// Sec 3.5 budgets, exactly as they do in local mode.
type WireSpec struct {
	// SampleRateHz, BlockSamples, CancelTaps, CNFTaps, CFOHz fill the
	// chain-geometry half of relayd.SessionParams.
	SampleRateHz float64
	BlockSamples int
	CancelTaps   int
	CNFTaps      int
	CFOHz        float64
	// Timeout bounds each frame exchange.
	Timeout time.Duration
}

// DefaultWireSpec matches the cell's 20 MHz OFDM calibration and the
// daemon smoke's chain sizing, with transport bounds tight enough that a
// dead daemon surfaces as a spill, not a hang.
func DefaultWireSpec() WireSpec {
	return WireSpec{
		SampleRateHz: cellSampleRate,
		BlockSamples: 256,
		CancelTaps:   24,
		CNFTaps:      16,
		CFOHz:        1500,
		Timeout:      10 * time.Second,
	}
}

// wireMetrics holds the fleet.wire.* obs handles; nil handles (no
// registry) are free no-ops.
type wireMetrics struct {
	hellos      *obs.Counter
	accepted    *obs.Counter
	refused     *obs.Counter
	releases    *obs.Counter
	loadQueries *obs.Counter
	blocks      *obs.Counter
	verified    *obs.Counter
	ioErrors    *obs.Counter
	dials       *obs.Counter
}

func newWireMetrics(reg *obs.Registry) wireMetrics {
	return wireMetrics{
		hellos:      reg.Counter("fleet.wire.hellos", "sessions"),
		accepted:    reg.Counter("fleet.wire.accepted", "sessions"),
		refused:     reg.Counter("fleet.wire.refused", "sessions"),
		releases:    reg.Counter("fleet.wire.releases", "sessions"),
		loadQueries: reg.Counter("fleet.wire.load_queries", "queries"),
		blocks:      reg.Counter("fleet.wire.blocks", "blocks"),
		verified:    reg.Counter("fleet.wire.verified_sessions", "sessions"),
		ioErrors:    reg.Counter("fleet.wire.io_errors", "errors"),
		dials:       reg.Counter("fleet.wire.dials", "connections"),
	}
}

// WireEndpoint serves a relay's admission over the wire: Admit is a live
// HELLO to an ffrelayd, Release ends the session (the daemon frees the
// budget slot before acknowledging), and occupancy/load come back over
// QUERY. REFUSE codes pass through untouched, so the scheduler's spill
// decisions are driven by the same vocabulary as in local mode; a
// transport failure synthesizes RefuseUnreachable.
//
// Connections to the daemon are kept alive between conversations: a
// QUERY, a refused HELLO or a released session leaves its connection on
// a stack of idle ones, and the next conversation takes the top one,
// dialing only when the stack is empty.
//
// Not concurrency-safe — the Pool serializes all calls.
type WireEndpoint struct {
	addr string
	spec WireSpec

	sessions map[string]*relayd.Client
	// idle holds the connections between conversations, the most recently
	// used on top.
	idle []*relayd.Conn

	// lastLoad / maxSessions cache the last successful QUERY so a
	// transient control-connection failure degrades to stale data (and an
	// io_errors count) instead of a panic mid-sweep.
	lastLoad    float64
	maxSessions int
	haveMax     bool

	m     wireMetrics
	shard int
}

// NewWireEndpoint builds an endpoint for one daemon address. reg may be
// nil (no metrics); shard is the obs shard every count lands in (use the
// cell's obs.ShardForSeed so sweeps stay order-independent).
func NewWireEndpoint(addr string, spec WireSpec, reg *obs.Registry, shard int) *WireEndpoint {
	if spec.BlockSamples <= 0 {
		spec = DefaultWireSpec()
	}
	return &WireEndpoint{
		addr:     addr,
		spec:     spec,
		sessions: make(map[string]*relayd.Client),
		m:        newWireMetrics(reg),
		shard:    shard,
	}
}

// Addr returns the daemon address this endpoint drives.
func (e *WireEndpoint) Addr() string { return e.addr }

// seedForKey derives the session-chain seed from the session key (FNV-1a)
// — deterministic across runs and modes, so the daemon-side chain for
// client "c7" is reproducible from the key alone.
func seedForKey(key string) int64 {
	h := fnv.New64a()
	// hash.Hash.Write never errors by contract.
	h.Write([]byte(key)) //fflint:allow errflow hash.Hash.Write is documented to never return an error
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Admit opens a live session: HELLO out, ACCEPT or REFUSE back. The
// returned decision is reconstructed bit-exactly from the ACCEPT frame
// (JSON float64 round-trips are exact), so the scheduler's books cannot
// tell the modes apart.
func (e *WireEndpoint) Admit(key string, sb relay.SessionBudget) (relay.AmpDecision, bool, *relayd.Refuse) {
	p := relayd.SessionParams{
		SampleRateHz:   e.spec.SampleRateHz,
		BlockSamples:   e.spec.BlockSamples,
		CancelTaps:     e.spec.CancelTaps,
		CNFTaps:        e.spec.CNFTaps,
		CFOHz:          e.spec.CFOHz,
		Seed:           seedForKey(key),
		CancellationDB: sb.CancellationDB,
		RDAttenDB:      sb.RDAttenDB,
		PAHeadroomDB:   sb.PAHeadroomDB,
		RxOverNoiseDB:  sb.RxOverNoiseDB,
	}
	e.m.hellos.Inc(e.shard)
	var c *relayd.Client
	_, err := e.converse(func(conn *relayd.Conn) (err error) {
		c, err = conn.Open(p)
		return err
	})
	if err != nil {
		var ref *relayd.Refuse
		if errors.As(err, &ref) {
			e.m.refused.Inc(e.shard)
			return relay.AmpDecision{}, false, ref
		}
		e.m.ioErrors.Inc(e.shard)
		return relay.AmpDecision{}, false, &relayd.Refuse{Code: relayd.RefuseUnreachable, Detail: err.Error()}
	}
	acc := c.Accept()
	bound, ok := relay.ParseAmpBound(acc.AmpBound)
	if !ok {
		// The daemon speaks a vocabulary this scheduler does not; treat
		// the grant as unusable and walk it back.
		e.end(c)
		e.m.ioErrors.Inc(e.shard)
		return relay.AmpDecision{}, false, &relayd.Refuse{
			Code: relayd.RefuseProtocol, Detail: fmt.Sprintf("unknown amp bound %q", acc.AmpBound)}
	}
	dec := relay.AmpDecision{
		AmpDB:               acc.AmpDB,
		Bound:               bound,
		StabilityHeadroomDB: acc.StabilityHeadroomDB,
	}
	e.sessions[key] = c
	e.m.accepted.Inc(e.shard)
	return dec, acc.Degraded, nil
}

// Release ends the session. The daemon frees the budget slot before it
// writes the STATS frame End reads, so the slot is observably free on
// return — the make-before-break invariant holds over the wire.
func (e *WireEndpoint) Release(key string) bool {
	c, ok := e.sessions[key]
	if !ok {
		return false
	}
	delete(e.sessions, key)
	e.end(c)
	e.m.releases.Inc(e.shard)
	return true
}

// end closes a session with DONE/STATS and puts its connection back on
// the idle stack; a failed close counts one io_error and drops the
// connection.
func (e *WireEndpoint) end(c *relayd.Client) {
	if _, err := c.End(); err != nil {
		c.Conn().Close()
		e.m.ioErrors.Inc(e.shard)
		return
	}
	e.idle = append(e.idle, c.Conn())
}

// converse runs one conversation, f, on the top idle connection, or on a
// new dial when none is idle, and returns the connection f ran on. A
// refusal leaves the connection idle: it goes back on the stack. Any
// other failure closes it; if the connection was reused and the daemon
// had closed it before answering (relayd.ErrPeerClosed — it idled the
// connection out, or restarted), the rest of the stack, idle longer
// still, is closed too and f runs once more on a new dial. A dial is
// tried once, with no backoff: the daemon's address is known, so a
// refused connect means it is down, and the placement walk spills at
// once instead of sleeping through a backoff.
func (e *WireEndpoint) converse(f func(*relayd.Conn) error) (*relayd.Conn, error) {
	for {
		reused := len(e.idle) > 0
		var conn *relayd.Conn
		if reused {
			conn = e.idle[len(e.idle)-1]
			e.idle = e.idle[:len(e.idle)-1]
		} else {
			e.m.dials.Inc(e.shard)
			var err error
			if conn, err = relayd.Dial(e.addr, e.spec.Timeout); err != nil {
				return nil, err
			}
		}
		err := f(conn)
		var ref *relayd.Refuse
		switch {
		case err == nil:
			return conn, nil
		case errors.As(err, &ref):
			e.idle = append(e.idle, conn)
			return nil, err
		}
		conn.Close() // the error told us all we need
		if !reused || !errors.Is(err, relayd.ErrPeerClosed) {
			return nil, err
		}
		e.closeIdle()
	}
}

// closeIdle closes every idle connection.
func (e *WireEndpoint) closeIdle() {
	for _, conn := range e.idle {
		conn.Close() // nothing is in flight on an idle connection
	}
	e.idle = nil
}

// query runs one QUERY/INFO round trip (converse). A success caches the
// daemon's load and session cap; a failure counts one io_error.
func (e *WireEndpoint) query() (relayd.Info, bool) {
	var info relayd.Info
	conn, err := e.converse(func(conn *relayd.Conn) (err error) {
		info, err = conn.Query()
		return err
	})
	if err != nil {
		e.m.ioErrors.Inc(e.shard)
		return relayd.Info{}, false
	}
	e.idle = append(e.idle, conn)
	e.m.loadQueries.Inc(e.shard)
	e.lastLoad = info.ResidualLoad
	e.maxSessions, e.haveMax = info.MaxSessions, true
	return info, true
}

// ResidualLoad returns the daemon's aggregate residual load, or the last
// observed value if the query fails.
func (e *WireEndpoint) ResidualLoad() float64 {
	e.query()
	return e.lastLoad
}

// Sessions returns the daemon's admitted session count, or this
// endpoint's own books if the query fails.
func (e *WireEndpoint) Sessions() int {
	if info, ok := e.query(); ok {
		return info.Active
	}
	return len(e.sessions)
}

// MaxSessions returns the daemon's session cap, cached after the first
// successful query (0 — uncapped — if the daemon was never reachable).
func (e *WireEndpoint) MaxSessions() int {
	if !e.haveMax {
		e.query()
	}
	return e.maxSessions
}

// VerifySession streams blocks of seeded noise through an admitted
// session and requires the daemon's output to be bit-identical to a
// local replica of its chain (relayd.Client.Stream) — the proof that the
// wire path executes the same pipeline the placement geometry priced.
// The stream is seeded from the session's own chain seed, so
// verification is deterministic per key.
func (e *WireEndpoint) VerifySession(key string, blocks int) error {
	c, ok := e.sessions[key]
	if !ok {
		return fmt.Errorf("fleet: no admitted wire session for %q", key)
	}
	served, err := c.Stream(rng.New(rng.ItemSeed(seedForKey(key), 1)), blocks, true)
	e.m.blocks.Add(e.shard, uint64(served))
	if err != nil {
		if !errors.Is(err, relayd.ErrNotBitExact) {
			e.m.ioErrors.Inc(e.shard)
		}
		return fmt.Errorf("fleet: wire session %q %w", key, err)
	}
	e.m.verified.Inc(e.shard)
	return nil
}

// ActiveSessions returns the keys of this endpoint's admitted sessions
// in ascending order.
func (e *WireEndpoint) ActiveSessions() []string {
	keys := make([]string, 0, len(e.sessions))
	for k := range e.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CloseSessions releases every admitted session and closes every
// connection; the endpoint stays usable (sessions can be admitted again).
// Returns the number of sessions released.
func (e *WireEndpoint) CloseSessions() int {
	n := 0
	for k := range e.sessions {
		if e.Release(k) {
			n++
		}
	}
	e.closeIdle()
	return n
}
