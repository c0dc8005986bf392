package relayd

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sort"

	"fastforward/internal/obs"
)

// SessionStatus is one session's row in the /status document.
type SessionStatus struct {
	ID       uint64  `json:"id"`
	Remote   string  `json:"remote"`
	State    string  `json:"state"`
	AmpDB    float64 `json:"amp_db"`
	AmpBound string  `json:"amp_bound"`
	Degraded bool    `json:"degraded"`
	Blocks   uint64  `json:"blocks"`
	Samples  uint64  `json:"samples"`
	AgeS     float64 `json:"age_s"`
	IdleS    float64 `json:"idle_s"`
}

// AdmissionStatus summarizes the gate's configuration and occupancy.
type AdmissionStatus struct {
	Active       int     `json:"active"`
	MaxSessions  int     `json:"max_sessions"`
	MinAmpDB     float64 `json:"min_amp_db"`
	Policy       string  `json:"policy"` // "refuse" or "degrade"
	ResidualLoad float64 `json:"residual_load"`
}

// Status is the /status JSON document: daemon state, per-session rows
// (sorted by id), the admission gate, and the full obs snapshot.
type Status struct {
	State     string                        `json:"state"` // "serving" or "draining"
	UptimeS   float64                       `json:"uptime_s"`
	Sessions  []SessionStatus               `json:"sessions"`
	Admission AdmissionStatus               `json:"admission"`
	Metrics   map[string]obs.MetricSnapshot `json:"metrics"`
}

// Status assembles the current status document.
func (s *Server) Status() Status {
	now := obs.NowNanos()
	st := Status{
		State:   "serving",
		UptimeS: float64(now-s.startNs) / 1e9,
	}
	if s.draining.Load() {
		st.State = "draining" //fflint:allow wirecodes daemon state name, not a REFUSE code; they share a word by design (OPERATIONS.md documents both)
	}
	s.mu.Lock()
	st.Sessions = make([]SessionStatus, 0, len(s.sessions))
	for _, sess := range s.sessions {
		st.Sessions = append(st.Sessions, SessionStatus{
			ID:       sess.ID,
			Remote:   sess.Remote,
			State:    sess.State().String(),
			AmpDB:    sess.Grant.AmpDB,
			AmpBound: sess.Grant.Bound.String(),
			Degraded: sess.Degraded,
			Blocks:   sess.Blocks(),
			Samples:  sess.Samples(),
			AgeS:     float64(now-sess.startNs) / 1e9,
			IdleS:    float64(now-sess.lastActiveNs.Load()) / 1e9,
		})
	}
	policy := "refuse"
	if s.cfg.Degrade {
		policy = "degrade"
	}
	st.Admission = AdmissionStatus{
		Active:       len(s.sessions),
		MaxSessions:  s.cfg.MaxSessions,
		MinAmpDB:     s.gate.MinAmpDB(),
		Policy:       policy,
		ResidualLoad: s.gate.ResidualLoad(),
	}
	s.mu.Unlock()
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	st.Metrics = s.reg.Snapshot().Metrics
	return st
}

// StatusHandler serves the daemon's HTTP surface:
//
//	GET /healthz — 200 "ok" while serving, 503 "draining" while draining
//	GET /status  — the Status document as JSON
func (s *Server) StatusHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			if _, err := w.Write([]byte("draining\n")); err != nil {
				s.m.statusErrors.Inc(0)
			}
			return
		}
		if _, err := w.Write([]byte("ok\n")); err != nil {
			s.m.statusErrors.Inc(0)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Status()); err != nil {
			s.m.statusErrors.Inc(0)
		}
	})
	return mux
}

// ServeStatus serves the status endpoint on ln until the listener
// closes; like Serve, after Close it closes ln and returns nil.
func (s *Server) ServeStatus(ln net.Listener) error {
	if !s.addListener(ln) {
		return nil
	}
	srv := &http.Server{Handler: s.StatusHandler()}
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed) {
		// Close shuts the listener out from under the http.Server (the
		// daemon drains its own conns; there is nothing to Shutdown), so
		// a closed-listener accept error is the clean-exit path here.
		return nil
	}
	return err
}
