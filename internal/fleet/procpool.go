package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"fastforward/internal/obs"
	"fastforward/internal/relayd"
)

// ProcessPoolConfig shapes a ProcessPool: the gate configuration every
// daemon runs (it must match the pool Config the cell's local gates were
// built from, or the two serve modes would book different admissions),
// the wire spec sessions are opened with, and an optional ffrelayd
// binary for subprocess daemons.
type ProcessPoolConfig struct {
	// Pool is the scheduler configuration; MaxSessionsPerRelay, MinAmpDB
	// and Degrade become each daemon's admission gate.
	Pool Config
	// Spec shapes every session the wire endpoints open.
	Spec WireSpec
	// Exec, when non-empty, is a path to a built cmd/ffrelayd binary:
	// each relay gets a real subprocess daemon instead of an in-process
	// relayd.Server (the smoke's configuration).
	Exec string
	// Obs receives the fleet.wire.* metrics (nil disables); Shard is the
	// obs shard they land in (the cell's obs.ShardForSeed).
	Obs   *obs.Registry
	Shard int
}

// poolMember is one relay's live daemon: exactly one of srv (in-process)
// or cmd (subprocess) is set.
type poolMember struct {
	relay *Relay
	ep    *WireEndpoint
	srv   *relayd.Server
	cmd   *exec.Cmd
}

// ProcessPool runs one live ffrelayd per registered relay and swaps each
// relay's endpoint to a WireEndpoint against it, so the same Pool
// scheduler drives real daemons over TCP. Close tears the daemons down
// and restores the local endpoints.
//
// The daemons listen on loopback with ephemeral ports; in-process
// servers are relayd.Server instances sharing this process (the -race
// test's configuration), subprocess daemons are real cmd/ffrelayd
// processes (the smoke's). Idle eviction is disabled — a fleet session
// legitimately stays quiet between assignment and teardown, and a
// nondeterministic eviction would change the books.
type ProcessPool struct {
	members []*poolMember
}

// NewProcessPool spawns one daemon per relay in reg and rewires every
// relay onto it. On error, everything already spawned is torn down and
// the registry is left as found.
func NewProcessPool(reg *Registry, cfg ProcessPoolConfig) (*ProcessPool, error) {
	if cfg.Spec.BlockSamples <= 0 {
		cfg.Spec = DefaultWireSpec()
	}
	pp := &ProcessPool{members: make([]*poolMember, 0, reg.Len())}
	for _, r := range reg.Relays() {
		m, err := spawnMember(r, cfg)
		if err != nil {
			pp.Close()
			return nil, fmt.Errorf("fleet: spawning daemon for relay %d: %w", r.ID, err)
		}
		pp.members = append(pp.members, m)
	}
	return pp, nil
}

// spawnMember starts one relay's daemon and swaps its endpoint.
func spawnMember(r *Relay, cfg ProcessPoolConfig) (*poolMember, error) {
	m := &poolMember{relay: r}
	var addr string
	if cfg.Exec != "" {
		cmd, a, err := spawnDaemonProcess(cfg.Exec, cfg)
		if err != nil {
			return nil, err
		}
		m.cmd, addr = cmd, a
	} else {
		srv := relayd.New(relayd.Config{
			MaxSessions:  cfg.Pool.MaxSessionsPerRelay,
			MinAmpDB:     cfg.Pool.MinAmpDB,
			Degrade:      cfg.Pool.Degrade,
			IdleTimeout:  0, // fleet sessions idle by design between assignment and teardown
			ReadTimeout:  cfg.Spec.Timeout,
			WriteTimeout: cfg.Spec.Timeout,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		go func() {
			if err := srv.Serve(ln); err != nil {
				fmt.Fprintf(os.Stderr, "fleet: relay %d daemon: %v\n", r.ID, err)
			}
		}()
		m.srv, addr = srv, ln.Addr().String()
	}
	m.ep = NewWireEndpoint(addr, cfg.Spec, cfg.Obs, cfg.Shard)
	r.SetEndpoint(m.ep)
	return m, nil
}

// spawnDaemonProcess execs a real ffrelayd on an ephemeral loopback port
// and blocks until its readiness line reports the bound address.
func spawnDaemonProcess(bin string, cfg ProcessPoolConfig) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin,
		"-mode", "serve",
		"-listen", "127.0.0.1:0",
		"-max-sessions", strconv.Itoa(cfg.Pool.MaxSessionsPerRelay),
		"-min-amp-db", strconv.FormatFloat(cfg.Pool.MinAmpDB, 'g', -1, 64),
		"-degrade="+strconv.FormatBool(cfg.Pool.Degrade),
		"-idle-timeout", "0s",
		"-read-timeout", cfg.Spec.Timeout.String(),
		"-write-timeout", cfg.Spec.Timeout.String(),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		const marker = "serving on "
		i := strings.Index(line, marker)
		if i < 0 {
			continue
		}
		addr := line[i+len(marker):]
		if j := strings.IndexByte(addr, ' '); j >= 0 {
			addr = addr[:j]
		}
		// Leave the pipe to buffer whatever little the daemon prints
		// later; it exits when killed.
		return cmd, addr, nil
	}
	err = sc.Err()
	if kerr := cmd.Process.Kill(); kerr != nil {
		fmt.Fprintf(os.Stderr, "fleet: killing unready daemon: %v\n", kerr)
	}
	if werr := cmd.Wait(); werr != nil && err == nil {
		err = werr
	}
	if err == nil {
		err = fmt.Errorf("fleet: daemon exited before its readiness line")
	}
	return nil, "", err
}

// Endpoint returns the wire endpoint serving a relay ID.
func (pp *ProcessPool) Endpoint(relayID int) (*WireEndpoint, bool) {
	for _, m := range pp.members {
		if m.relay.ID == relayID {
			return m.ep, true
		}
	}
	return nil, false
}

// Close releases every still-open wire session, restores each relay's
// local endpoint, and stops the daemons (in-process servers close;
// subprocesses are killed and reaped).
func (pp *ProcessPool) Close() {
	for _, m := range pp.members {
		if m.ep != nil {
			m.ep.CloseSessions()
		}
		m.relay.SetEndpoint(nil)
		if m.srv != nil {
			m.srv.Close()
		}
		if m.cmd != nil {
			if err := m.cmd.Process.Kill(); err != nil {
				fmt.Fprintf(os.Stderr, "fleet: killing relay %d daemon: %v\n", m.relay.ID, err)
			}
			if err := m.cmd.Wait(); err != nil {
				// A killed process always reports an error; only surface
				// the unexpected shapes.
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					fmt.Fprintf(os.Stderr, "fleet: reaping relay %d daemon: %v\n", m.relay.ID, err)
				}
			}
		}
	}
	pp.members = nil
}
