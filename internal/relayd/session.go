package relayd

import (
	"math"
	"sync/atomic"

	"fastforward/internal/pipeline"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
)

// SessionState is the lifecycle FSM of one admitted session:
//
//	Admitted --first DATA--> Streaming --DONE--> Closed (completed)
//	    |                        |
//	    +--idle timeout----------+--> Closed (evicted)
//	    |                        |
//	    +--drain force-close-----+--> Closed (flushed or aborted)
//
// Refused HELLOs never become sessions: they are counted and answered
// before a Session exists, and their connection stays open for the next
// HELLO or QUERY.
type SessionState int32

const (
	// StateAdmitted: HELLO accepted, no DATA seen yet.
	StateAdmitted SessionState = iota
	// StateStreaming: at least one DATA block processed.
	StateStreaming
	// StateClosed: the session left the daemon (completed, evicted, or
	// errored); its budget slot is released.
	StateClosed
)

// String names the state for the status endpoint.
func (s SessionState) String() string {
	switch s {
	case StateAdmitted:
		return "admitted"
	case StateStreaming:
		return "streaming"
	case StateClosed:
		return "closed"
	}
	return "unknown"
}

// Session is one admitted IQ stream: its chain, its sticky amplification
// grant, and its accounting. All mutable fields are atomics — the status
// endpoint reads them concurrently with the handler.
type Session struct {
	// ID is the daemon-assigned session id (monotonic, never reused).
	ID uint64
	// Remote describes the peer (transport address, or "pipe" in tests).
	Remote string
	// Params echoes the admitted HELLO.
	Params SessionParams
	// Grant is the sticky amplification decision admission produced.
	Grant relay.AmpDecision
	// Degraded reports the grant came from the degrade policy.
	Degraded bool

	chain  *pipeline.Chain
	cancel *pipeline.CancelStage
	shard  int

	state        atomic.Int32
	blocks       atomic.Uint64
	samples      atomic.Uint64
	startNs      int64
	lastActiveNs atomic.Int64
}

// State returns the session's current FSM state.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Blocks returns the number of processed blocks.
func (s *Session) Blocks() uint64 { return s.blocks.Load() }

// Samples returns the number of processed samples.
func (s *Session) Samples() uint64 { return s.samples.Load() }

// budget maps the session's declared physics to the admission currency.
func (p SessionParams) budget() relay.SessionBudget {
	return relay.SessionBudget{
		CancellationDB: p.CancellationDB,
		RDAttenDB:      p.RDAttenDB,
		PAHeadroomDB:   p.PAHeadroomDB,
		RxOverNoiseDB:  p.RxOverNoiseDB,
	}
}

// BuildSessionChain constructs the exact chain the daemon runs for an
// admitted session: pipeline.NewForwardStages over taps drawn from the
// HELLO's seed (pipeline.SessionTaps) at its sizes, with the HELLO's CFO
// and the granted amplification. Exported so clients and tests can
// build the single-session reference path and assert the daemon's output
// is bit-identical to it. The chain is named "relayd", so an instrumented
// one times its stages as pipeline.relayd.<stage>.
func BuildSessionChain(p SessionParams, ampDB float64) (*pipeline.Chain, *pipeline.CancelStage) {
	canc, pre := pipeline.SessionTaps(rng.New(p.Seed), p.CancelTaps, p.CNFTaps)
	stages, cancel := pipeline.NewForwardStages(canc, pre, 2*math.Pi*p.CFOHz/p.SampleRateHz, ampDB)
	return pipeline.NewChain("relayd", stages...), cancel
}
