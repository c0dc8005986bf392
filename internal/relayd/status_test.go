package relayd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusEndpoint exercises the HTTP surface against a live daemon:
// /healthz flips with drain state and /status reports sessions, the
// admission gate, and the metric snapshot.
func TestStatusEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, DefaultConfig())
	h := srv.StatusHandler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	if err := runVerifiedSession(srv, testParams(900), 2, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "completed session to release", func() bool { return srv.Sessions() == 0 })
	c, err := pipeSession(srv, testParams(901))
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}

	rec := get("/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("/status = %d, want 200", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if st.State != "serving" {
		t.Fatalf("state = %q, want serving", st.State)
	}
	if st.UptimeS <= 0 {
		t.Fatalf("uptime_s = %v, want > 0", st.UptimeS)
	}
	if len(st.Sessions) != 1 {
		t.Fatalf("sessions = %d rows, want 1 (completed session must not linger)", len(st.Sessions))
	}
	row := st.Sessions[0]
	if row.State != "admitted" || row.Blocks != 0 || row.AmpDB != c.Accept().AmpDB {
		t.Fatalf("session row %+v inconsistent with live session (amp %v)", row, c.Accept().AmpDB)
	}
	if st.Admission.Active != 1 || st.Admission.Policy != "refuse" ||
		st.Admission.MaxSessions != DefaultConfig().MaxSessions {
		t.Fatalf("admission block %+v inconsistent with config", st.Admission)
	}
	if m, ok := st.Metrics["relayd.sessions_admitted"]; !ok || m.Type != "counter" {
		t.Fatalf("metrics snapshot missing relayd.sessions_admitted (got %+v)", m)
	}

	if _, err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitFor(t, "session row to clear", func() bool { return srv.Sessions() == 0 })
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rec := get("/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", rec.Code)
	}
	var drained Status
	if rec := get("/status"); json.Unmarshal(rec.Body.Bytes(), &drained) != nil || drained.State != "draining" {
		t.Fatalf("/status while draining reports %q, want draining", drained.State)
	}
}
