// Command ffrelayd is the long-running FastForward relay daemon and its
// client. Three modes share one binary so the wire protocol, the session
// chain construction, and the verification path can never drift apart:
//
//	ffrelayd -mode serve   # the daemon: admission control + per-connection session chains
//	ffrelayd -mode stream  # a client: stream blocks, optionally bit-verify
//	ffrelayd -mode smoke   # self-contained end-to-end check (CI)
//
// OPERATIONS.md is the runbook: every flag, the admission policy and its
// Sec 3.5 budget math, drain semantics, and the status endpoint schema.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastforward/cmd/internal/runmeta"
	"fastforward/internal/obs"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
)

var (
	mode = flag.String("mode", "serve", "serve (daemon), stream (client), or smoke (self-contained end-to-end check)")

	// Daemon flags (-mode serve, and the embedded server in smoke).
	listenAddr   = flag.String("listen", "127.0.0.1:9040", "serve: TCP address for relay sessions")
	statusAddr   = flag.String("status", "", "serve: TCP address for the HTTP status endpoint (empty disables)")
	maxSessions  = flag.Int("max-sessions", 16, "serve: concurrent session cap (0 = unlimited)")
	minAmpDB     = flag.Float64("min-amp-db", 0, "serve: refuse sessions whose amplification grant would fall below this")
	degrade      = flag.Bool("degrade", false, "serve: degrade a candidate's amplification instead of refusing when the budget is tight")
	sessionRate  = flag.Float64("session-rate", 0, "serve: per-session throughput limit in samples/s (0 = unlimited)")
	globalRate   = flag.Float64("global-rate", 0, "serve: aggregate throughput limit in samples/s (0 = unlimited)")
	burstSamples = flag.Int("burst", 1<<16, "serve: token-bucket burst size in samples")
	idleTimeout  = flag.Duration("idle-timeout", 30*time.Second, "serve: evict a session after this long without a frame (0 = never)")
	readTimeout  = flag.Duration("read-timeout", 10*time.Second, "serve: deadline for reading one frame's payload (0 = none)")
	writeTimeout = flag.Duration("write-timeout", 10*time.Second, "serve: deadline for writing one frame (0 = none)")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "serve: how long a SIGTERM drain waits before force-closing sessions")

	// Client flags (-mode stream).
	connectAddr = flag.String("connect", "127.0.0.1:9040", "stream: daemon address to connect to")
	nBlocks     = flag.Int("blocks", 8, "stream: number of blocks to stream")
	verify      = flag.Bool("verify", true, "stream: rebuild the session chain locally and require bit-identical output")
	attempts    = flag.Int("attempts", 5, "stream: connection attempts before giving up (exponential backoff between)")
	ioTimeout   = flag.Duration("io-timeout", 15*time.Second, "stream: deadline for each client frame exchange (0 = none)")

	// Session parameters (stream and smoke HELLOs).
	seed         = flag.Int64("seed", 1, "session seed: draws the chain taps, identically on daemon and client")
	blockSamples = flag.Int("block-samples", 256, "samples per block")
	sampleRate   = flag.Float64("sample-rate-hz", 20e6, "session sample rate in Hz")
	cancelTaps   = flag.Int("cancel-taps", 24, "self-interference canceller taps")
	cnfTaps      = flag.Int("cnf-taps", 16, "constructive noise filter taps")
	cfoHz        = flag.Float64("cfo-hz", 1500, "carrier frequency offset in Hz")
	cancelDB     = flag.Float64("cancellation-db", 85, "admission physics: self-interference cancellation in dB")
	rdAttenDB    = flag.Float64("rd-atten-db", 50, "admission physics: relay-to-destination attenuation in dB")
	paHeadroomDB = flag.Float64("pa-headroom-db", 40, "admission physics: power-amplifier headroom in dB")
	rxNoiseDB    = flag.Float64("rx-over-noise-db", 30, "admission physics: received signal over thermal noise in dB")
)

func main() {
	flag.Parse()
	run := runmeta.Begin("ffrelayd")
	var err error
	switch *mode {
	case "serve":
		err = serveMode(run.Registry())
	case "stream":
		err = streamMode()
	case "smoke":
		err = smokeMode(run.Registry())
	default:
		err = fmt.Errorf("unknown -mode %q (want serve, stream, or smoke)", *mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffrelayd: %v\n", err)
		os.Exit(1)
	}
	run.Finish(*seed, 1)
}

func serverConfig(reg *obs.Registry) relayd.Config {
	if reg == nil {
		reg = obs.New()
	}
	return relayd.Config{
		MaxSessions:  *maxSessions,
		MinAmpDB:     *minAmpDB,
		Degrade:      *degrade,
		SessionRate:  *sessionRate,
		GlobalRate:   *globalRate,
		BurstSamples: *burstSamples,
		IdleTimeout:  *idleTimeout,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		Registry:     reg,
	}
}

func sessionParams() relayd.SessionParams {
	return relayd.SessionParams{
		SampleRateHz:   *sampleRate,
		BlockSamples:   *blockSamples,
		CancelTaps:     *cancelTaps,
		CNFTaps:        *cnfTaps,
		CFOHz:          *cfoHz,
		Seed:           *seed,
		CancellationDB: *cancelDB,
		RDAttenDB:      *rdAttenDB,
		PAHeadroomDB:   *paHeadroomDB,
		RxOverNoiseDB:  *rxNoiseDB,
	}
}

// serveMode runs the daemon until SIGINT/SIGTERM, then drains: admission
// stops, in-flight sessions flush (bounded by -drain-timeout), and the
// manifest is written on the way out.
func serveMode(reg *obs.Registry) error {
	srv := relayd.New(serverConfig(reg))
	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return err
	}
	fmt.Printf("ffrelayd: serving on %s (max-sessions=%d, degrade=%v)\n", ln.Addr(), *maxSessions, *degrade)
	if *statusAddr != "" {
		sln, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			return err
		}
		fmt.Printf("ffrelayd: status endpoint on http://%s/status\n", sln.Addr())
		go func() {
			if err := srv.ServeStatus(sln); err != nil {
				fmt.Fprintf(os.Stderr, "ffrelayd: status endpoint: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("ffrelayd: %v: draining (timeout %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ffrelayd: drain incomplete, force-closed: %v\n", err)
		} else {
			fmt.Println("ffrelayd: drained cleanly")
		}
		srv.Close()
	}()

	err = srv.Serve(ln)
	srv.Close()
	return err
}

// streamMode runs one client session: dial with backoff, stream -blocks
// blocks of seeded noise, and (with -verify) require the daemon's output
// to be bit-identical to a locally rebuilt session chain.
func streamMode() error {
	p := sessionParams()
	c, err := relayd.DialTimeout(*connectAddr, p, &relayd.Backoff{}, *attempts, *ioTimeout)
	if err != nil {
		return err
	}
	acc := c.Accept()
	fmt.Printf("ffrelayd: session %d admitted: amp %.2f dB (bound %s, degraded=%v, residual load %.3g)\n",
		acc.SessionID, acc.AmpDB, acc.AmpBound, acc.Degraded, acc.ResidualLoad)
	if err := streamVerified(c, p, *nBlocks, *verify); err != nil {
		return err
	}
	st, err := c.Close()
	if err != nil {
		return err
	}
	fmt.Printf("ffrelayd: session %d done: %d blocks, %d samples at %.2f dB\n",
		st.SessionID, st.Blocks, st.Samples, st.AmpDB)
	if *verify {
		fmt.Printf("ffrelayd: verify: all %d blocks bit-identical to the local chain\n", st.Blocks)
	}
	return nil
}

// streamVerified streams blocks of noise seeded from the session's own
// seed through an admitted session (relayd.Client.Stream), comparing
// each returned block bit for bit against a local replica of the
// daemon's chain when verify is set.
func streamVerified(c *relayd.Client, p relayd.SessionParams, blocks int, verify bool) error {
	_, err := c.Stream(rng.New(p.Seed^0x0ff10ad), blocks, verify)
	return err
}

// smokeMode is the CI end-to-end check, self-contained in one process to
// avoid port coordination: a real TCP daemon, two concurrent bit-verified
// sessions, a budget refusal, a status scrape, and a clean drain.
func smokeMode(reg *obs.Registry) error {
	if reg == nil {
		reg = obs.New()
	}
	cfg := serverConfig(reg)
	srv := relayd.New(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: serve: %v\n", err)
		}
	}()
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() {
		if err := srv.ServeStatus(sln); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: status endpoint: %v\n", err)
		}
	}()
	addr := ln.Addr().String()
	statusURL := "http://" + sln.Addr().String()

	// Two well-cancelled sessions: admit both, then stream concurrently
	// with bit-exact verification against local replica chains.
	const blocks = 8
	clients := make([]*relayd.Client, 2)
	params := make([]relayd.SessionParams, 2)
	for i := range clients {
		params[i] = sessionParams()
		params[i].Seed = int64(100 + i)
		c, err := relayd.DialTimeout(addr, params[i], &relayd.Backoff{}, *attempts, *ioTimeout)
		if err != nil {
			return fmt.Errorf("smoke: admitting session %d: %w", i, err)
		}
		clients[i] = c
	}
	errc := make(chan error, len(clients))
	for i := range clients {
		go func(i int) { errc <- streamVerified(clients[i], params[i], blocks, true) }(i)
	}
	for range clients {
		if err := <-errc; err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
	}
	fmt.Printf("smoke: %d concurrent sessions bit-identical over %d blocks\n", len(clients), blocks)

	// A poorly-cancelled session whose residual load would invalidate the
	// admitted sessions' grants: the physics gate must refuse it.
	noisy := sessionParams()
	noisy.Seed = 999
	noisy.CancellationDB, noisy.RxOverNoiseDB = 55, 52
	_, err = relayd.DialTimeout(addr, noisy, &relayd.Backoff{}, 1, *ioTimeout)
	var refused *relayd.Refuse
	if !errors.As(err, &refused) || refused.Code != relayd.RefuseBudget {
		return fmt.Errorf("smoke: over-budget session: want budget refusal, got %v", err)
	}
	fmt.Printf("smoke: over-budget session refused: %s\n", refused.Detail)

	// Status endpoint: healthy, and consistent with the two live sessions.
	var st relayd.Status
	if err := getJSON(statusURL+"/status", &st); err != nil {
		return fmt.Errorf("smoke: status scrape: %w", err)
	}
	if st.State != "serving" || st.Admission.Active != 2 || len(st.Sessions) != 2 {
		return fmt.Errorf("smoke: status reports state=%q active=%d rows=%d, want serving/2/2",
			st.State, st.Admission.Active, len(st.Sessions))
	}
	if code, err := getStatusCode(statusURL + "/healthz"); err != nil || code != http.StatusOK {
		return fmt.Errorf("smoke: /healthz = %d, %v; want 200", code, err)
	}
	fmt.Printf("smoke: status endpoint consistent (uptime %.3fs, residual load %.3g)\n",
		st.UptimeS, st.Admission.ResidualLoad)

	for i, c := range clients {
		stats, err := c.Close()
		if err != nil {
			return fmt.Errorf("smoke: closing session %d: %w", i, err)
		}
		if stats.Blocks != blocks {
			return fmt.Errorf("smoke: session %d stats report %d blocks, want %d", i, stats.Blocks, blocks)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("smoke: drain: %w", err)
	}
	code, err := getStatusCode(statusURL + "/healthz")
	if err != nil {
		return fmt.Errorf("smoke: /healthz while draining: %w", err)
	}
	if code != http.StatusServiceUnavailable {
		return fmt.Errorf("smoke: /healthz while draining = %d, want 503", code)
	}
	fmt.Println("smoke: drained cleanly; all checks passed")
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getStatusCode(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
