package fleet

import (
	"fastforward/internal/relay"
	"fastforward/internal/relayd"
)

// Endpoint is the admission seam between the scheduler and one relay:
// everything the Pool needs from a relay front-end, abstracted away from
// where that front-end runs. *relayd.Gate is the in-process endpoint (the
// sweep default: the exact policy object a live daemon uses, minus the
// daemon); WireEndpoint (wire.go) drives a live ffrelayd over TCP with the
// same refusal vocabulary, so a spill decision is made identically whether
// the REFUSE arrived as a struct or as a frame.
//
// Implementations are not required to be concurrency-safe; the Pool
// serializes all calls (one sweep cell owns one Pool).
type Endpoint interface {
	// Admit asks the relay to admit a session under the Sec 3.5 budget.
	// On success the grant is sticky until Release(key). On refusal ref
	// carries a stable wire code (relayd.Refuse*); transport failures
	// surface as RefuseUnreachable, never as a Go error — the scheduler's
	// only move either way is to spill.
	Admit(key string, sb relay.SessionBudget) (dec relay.AmpDecision, degraded bool, ref *relayd.Refuse)
	// Release frees an admitted session's slot, reporting whether the key
	// held one. Synchronous: on return the budget slot is observably free.
	Release(key string) bool
	// ResidualLoad is the aggregate admitted load L = Σ β_i·A_i.
	ResidualLoad() float64
	// Sessions is the number of sessions currently holding grants.
	Sessions() int
	// MaxSessions is the configured session cap (0 = uncapped).
	MaxSessions() int
}
