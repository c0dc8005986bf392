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
	// Timeout bounds each frame exchange; Attempts bounds dial retries
	// (transient only — a refusal is terminal, relayd.DialTimeout).
	Timeout  time.Duration
	Attempts int
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
		Attempts:     3,
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
	}
}

// wireSession is one admitted session's client, its grant as decoded
// from the ACCEPT frame, and everything needed to rebuild its chain
// locally (bit-verification).
type wireSession struct {
	c      *relayd.Client
	params relayd.SessionParams
	dec    relay.AmpDecision
}

// WireEndpoint serves a relay's admission over the wire: Admit is a live
// HELLO to an ffrelayd, Release closes the session (the daemon frees the
// budget slot before acknowledging), and occupancy/load come back over a
// QUERY control connection. REFUSE codes pass through untouched, so the
// scheduler's spill decisions are driven by the same vocabulary as in
// local mode; a transport failure synthesizes RefuseUnreachable.
//
// Not concurrency-safe — the Pool serializes all calls.
type WireEndpoint struct {
	addr string
	spec WireSpec

	sessions map[string]*wireSession
	info     *relayd.InfoClient

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
		sessions: make(map[string]*wireSession),
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
	c, err := relayd.DialTimeout(e.addr, p, nil, e.spec.Attempts, e.spec.Timeout)
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
		if _, cerr := c.Close(); cerr != nil {
			e.m.ioErrors.Inc(e.shard)
		}
		e.m.ioErrors.Inc(e.shard)
		return relay.AmpDecision{}, false, &relayd.Refuse{
			Code: relayd.RefuseProtocol, Detail: fmt.Sprintf("unknown amp bound %q", acc.AmpBound)}
	}
	dec := relay.AmpDecision{
		AmpDB:               acc.AmpDB,
		Bound:               bound,
		StabilityHeadroomDB: acc.StabilityHeadroomDB,
	}
	e.sessions[key] = &wireSession{c: c, params: p, dec: dec}
	e.m.accepted.Inc(e.shard)
	return dec, acc.Degraded, nil
}

// Release closes the session. The daemon frees the budget slot before it
// writes the STATS frame Close reads, so the slot is observably free on
// return — the make-before-break invariant holds over the wire.
func (e *WireEndpoint) Release(key string) bool {
	s, ok := e.sessions[key]
	if !ok {
		return false
	}
	delete(e.sessions, key)
	if _, err := s.c.Close(); err != nil {
		e.m.ioErrors.Inc(e.shard)
	}
	e.m.releases.Inc(e.shard)
	return true
}

// query runs one QUERY/INFO round trip over the lazily dialed control
// connection, redialing at most once (the daemon may have idled it out).
// A success caches the daemon's load and session cap; a failure counts
// one io_error.
func (e *WireEndpoint) query() (relayd.Info, bool) {
	for attempt := 0; attempt < 2; attempt++ {
		if e.info == nil {
			ic, err := relayd.DialInfo(e.addr, e.spec.Timeout)
			if err != nil {
				break
			}
			e.info = ic
		}
		info, err := e.info.Query()
		if err == nil {
			e.m.loadQueries.Inc(e.shard)
			e.lastLoad = info.ResidualLoad
			e.maxSessions, e.haveMax = info.MaxSessions, true
			return info, true
		}
		e.info.Close() // stale control conn; the query error told us all we need
		e.info = nil
	}
	e.m.ioErrors.Inc(e.shard)
	return relayd.Info{}, false
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
// local replica of its chain (relayd.BuildSessionChain) — the proof that
// the wire path executes the same pipeline the placement geometry
// priced. The stream is seeded from the session's own chain seed, so
// verification is deterministic per key.
func (e *WireEndpoint) VerifySession(key string, blocks int) error {
	s, ok := e.sessions[key]
	if !ok {
		return fmt.Errorf("fleet: no admitted wire session for %q", key)
	}
	p := s.params
	n := p.BlockSamples
	src := rng.New(rng.ItemSeed(p.Seed, 1))
	tx := src.NoiseVector(blocks*n, 1)
	rx := src.NoiseVector(blocks*n, 1)
	out := make([]complex128, n)
	want := make([]complex128, n)
	ref, refCancel := relayd.BuildSessionChain(p, s.dec.AmpDB)
	for b := 0; b < blocks; b++ {
		off := b * n
		if err := s.c.Process(out, rx[off:off+n], tx[off:off+n]); err != nil {
			e.m.ioErrors.Inc(e.shard)
			return fmt.Errorf("fleet: wire session %q block %d: %w", key, b, err)
		}
		e.m.blocks.Inc(e.shard)
		copy(want, rx[off:off+n])
		refCancel.SetReference(tx[off : off+n])
		ref.Process(want)
		for j := range want {
			if out[j] != want[j] {
				return fmt.Errorf("fleet: wire session %q block %d sample %d: daemon %v, local chain %v (bit-exact required)",
					key, b, j, out[j], want[j])
			}
		}
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

// CloseSessions closes every admitted session and the control
// connection; the endpoint stays usable (sessions can be admitted
// again). Returns the number of sessions closed.
func (e *WireEndpoint) CloseSessions() int {
	n := 0
	for k := range e.sessions {
		if e.Release(k) {
			n++
		}
	}
	if e.info != nil {
		e.info.Close()
		e.info = nil
	}
	return n
}
