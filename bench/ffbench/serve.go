package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fastforward/bench/kit"
	"fastforward/internal/obs"
	"fastforward/internal/pipeline"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
	"fastforward/internal/stats"
)

// The served workloads run an in-process relayd.Server with its
// DefaultConfig limits on loopback TCP and two client sessions, one
// goroutine and one connection each — the load fits the two CPUs the
// benchmark is sized for. Each session cycles through a seeded pool of
// input blocks, keeps one block in flight (closed loop) and folds every
// OUT block into a running CRC that a replay through
// relayd.BuildSessionChain must reproduce.
const (
	serveSessions = 2
	// openRate is the open-loop phase's offered load per session in
	// samples/s: about 40% of what one session sustains at 4096-sample
	// blocks, so the phase measures latency below saturation.
	openRate = 1.0e6
	// inputSamples sizes each session's seeded input pool.
	inputSamples = 1 << 16
	ioTimeout    = 10 * time.Second
	// serveSegments is how many closed-loop segments a phase is cut into,
	// with a speed probe after each.
	serveSegments = 10
	// keepSamples bounds the round trips kept per segment, so the
	// benchmark's own bookkeeping does not grow with throughput.
	keepSamples = 4096
)

// sessionParams is session i's HELLO: a 20 MHz stream through the
// 24-tap canceller and 16-tap CNF chain with a 1.5 kHz CFO, under the
// daemon smoke's admission physics (both sessions are admitted).
func sessionParams(seed int64, i, block int) relayd.SessionParams {
	return relayd.SessionParams{
		SampleRateHz: 20e6, BlockSamples: block, CancelTaps: 24, CNFTaps: 16, CFOHz: 1500,
		Seed:           rng.ItemSeed(seed, i),
		CancellationDB: 85, RDAttenDB: 50, PAHeadroomDB: 40, RxOverNoiseDB: 30,
	}
}

// session is one client's stream state. It is used by one goroutine at a
// time.
type session struct {
	idx    int
	p      relayd.SessionParams
	in     kit.Blocks
	c      *relayd.Client
	conn   *kit.Conn
	io     kit.IOStats
	out    []complex128
	crc    kit.StreamCRC
	blocks int
	failed int
	// tr, when set, records the spans of every traceEvery-th block.
	tr         *kit.Tracer
	traceEvery int
}

// step runs one block round trip and returns its duration; the CRC fold
// happens after the clock stops.
func (s *session) step() (time.Duration, time.Time, error) {
	rx, ref := s.in.At(s.blocks)
	id := uint64(s.idx)<<40 | uint64(s.blocks)
	tr := s.tr
	if tr != nil && s.blocks%s.traceEvery != 0 {
		tr = nil
	}
	root := tr.Begin(id, "relayd.Client.Process", -1)
	s.conn.Tracer, s.conn.Parent, s.conn.ID = tr, root, id
	t0 := time.Now()
	err := s.c.Process(s.out, rx, ref)
	done := time.Now()
	tr.End(root)
	if err != nil {
		s.failed++
		return done.Sub(t0), done, err
	}
	s.crc.Add(s.out)
	s.blocks++
	return done.Sub(t0), done, nil
}

// daemon is the served system under test plus the benchmark's probes on
// it: a byte-counting, timing listener and one timing conn per session.
type daemon struct {
	srv    *relayd.Server
	ln     net.Listener
	served chan error
	ioOn   atomic.Bool
	srvIO  kit.IOStats
	sess   []*session
}

// startDaemon starts the server and opens every session: the set-up the
// served workloads time.
func startDaemon(ps []relayd.SessionParams, ins []kit.Blocks) (*daemon, error) {
	cfg := relayd.DefaultConfig()
	cfg.Registry = obs.New()
	d := &daemon{srv: relayd.New(cfg), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.ln = ln
	go func() { d.served <- d.srv.Serve(&kit.Listener{Listener: ln, Stats: &d.srvIO, On: &d.ioOn}) }()
	for i, p := range ps {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			d.close()
			return nil, err
		}
		s := &session{idx: i, p: p, in: ins[i], out: make([]complex128, p.BlockSamples)}
		s.conn = &kit.Conn{Conn: raw, Stats: &s.io, On: &d.ioOn, Parent: -1}
		if s.c, err = relayd.NewClientConnTimeout(s.conn, p, ioTimeout); err != nil {
			d.close()
			return nil, err
		}
		d.sess = append(d.sess, s)
	}
	return d, nil
}

// close ends every healthy session with DONE, checks the daemon's block
// count against the client's, and stops the server.
func (d *daemon) close() error {
	var err error
	for _, s := range d.sess {
		if s.failed > 0 {
			s.conn.Close()
			continue
		}
		st, cerr := s.c.Close()
		switch {
		case cerr != nil:
			err = fmt.Errorf("session %d close: %w", s.idx, cerr)
		case st.Blocks != uint64(s.blocks):
			err = fmt.Errorf("session %d: daemon counted %d blocks, client %d", s.idx, st.Blocks, s.blocks)
		}
	}
	d.srv.Close()
	d.ln.Close() // in case Serve had not registered it yet
	if serr := <-d.served; serr != nil && err == nil {
		err = serr
	}
	return err
}

// segment is what one closed-loop segment measured over all sessions.
type segment struct {
	rttUS  []float64 // every stride-th round trip
	blocks int
	wall   time.Duration
}

// closedLoop keeps one block in flight per session until dur has passed,
// keeping every stride-th round trip of each session.
func (d *daemon) closedLoop(dur time.Duration, stride int) segment {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]segment, len(d.sess))
	ends := make([]time.Time, len(d.sess))
	var wg sync.WaitGroup
	for i, s := range d.sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			seg := &parts[i]
			seg.rttUS = make([]float64, 0, keepSamples/len(d.sess)+1)
			ends[i] = start
			for s.failed == 0 && time.Now().Before(deadline) {
				dt, done, err := s.step()
				ends[i] = done
				if err != nil {
					return
				}
				if seg.blocks%stride == 0 {
					seg.rttUS = append(seg.rttUS, float64(dt)/1e3)
				}
				seg.blocks++
			}
		}(i, s)
	}
	wg.Wait()
	var all segment
	last := start
	for i, p := range parts {
		all.rttUS = append(all.rttUS, p.rttUS...)
		all.blocks += p.blocks
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	all.wall = last.Sub(start)
	return all
}

// phase is a closed-loop phase cut into segments, every time in it
// scaled by the machine speed measured around its segment.
type phase struct {
	rttUS  []float64 // sampled round trips, scaled
	rates  []float64 // each segment's blocks/s, scaled
	blocks int
	wall   time.Duration
	proc   kit.ProcTotals
}

// phase runs serveSegments closed-loop segments that, with their probes,
// fill dur.
func (d *daemon) phase(clock *speedClock, dur time.Duration, stride int) (phase, error) {
	segDur := max(dur/serveSegments-probeDur, dur/(2*serveSegments))
	var ph phase
	for k := 0; k < serveSegments; k++ {
		before := kit.ReadProc()
		seg := d.closedLoop(segDur, stride)
		used := kit.ReadProc().Since(before)
		f, err := clock.segment()
		if err != nil {
			return ph, err
		}
		for _, x := range seg.rttUS {
			ph.rttUS = append(ph.rttUS, x*f)
		}
		ph.rates = append(ph.rates, float64(seg.blocks)/seg.wall.Seconds()/f)
		ph.blocks += seg.blocks
		ph.wall += seg.wall
		ph.proc.Add(used, f)
	}
	return ph, nil
}

// openLoop offers every session openRate samples/s for dur: each block is
// due one block of air time at that rate after the previous one.
func (d *daemon) openLoop(dur time.Duration, period time.Duration) kit.OpenLoopStats {
	start := time.Now().Add(period)
	deadline := start.Add(dur)
	parts := make([]kit.OpenLoopStats, len(d.sess))
	var wg sync.WaitGroup
	for i, s := range d.sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			// Independent users do not send in lockstep: offset each
			// session's schedule by an equal share of the period.
			first := start.Add(period * time.Duration(i) / time.Duration(len(d.sess)))
			parts[i] = kit.OpenLoop(first, period, deadline, func() (time.Time, error) {
				if s.failed > 0 {
					return time.Now(), fmt.Errorf("session %d is broken", s.idx)
				}
				_, done, err := s.step()
				return done, err
			})
		}(i, s)
	}
	wg.Wait()
	var all kit.OpenLoopStats
	for _, p := range parts {
		all.LatencyUS = append(all.LatencyUS, p.LatencyUS...)
		all.LagUS = append(all.LagUS, p.LagUS...)
		all.Failed = append(all.Failed, p.Failed...)
	}
	return all
}

// verifyCRC replays every session's blocks through its solo chain, the
// sessions in parallel, and reports which sessions' CRCs differ.
func (d *daemon) verifyCRC() []int {
	want := make([]uint32, len(d.sess))
	var wg sync.WaitGroup
	for i, s := range d.sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			want[i] = kit.ReplayCRC(s.p, s.c.Accept().AmpDB, s.in, s.blocks)
		}(i, s)
	}
	wg.Wait()
	var bad []int
	for i, s := range d.sess {
		if s.crc.Sum() != want[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// daemonSnapshot is everything the per-layer split reads: the daemon's
// own pipeline timers and counters, and the I/O the conn wrappers
// measured on both sides.
type daemonSnapshot struct {
	reg    obs.Snapshot
	server kit.IOTotals
	client kit.IOTotals
}

func (d *daemon) snapshot() daemonSnapshot {
	p := daemonSnapshot{reg: d.srv.Registry().Snapshot(), server: d.srvIO.Snapshot()}
	for _, s := range d.sess {
		c := s.io.Snapshot()
		p.client.ReadNS += c.ReadNS
		p.client.WriteNS += c.WriteNS
		p.client.ReadBytes += c.ReadBytes
		p.client.WriteBytes += c.WriteBytes
	}
	return p
}

func timerSeconds(s obs.Snapshot, name string) float64 {
	for _, t := range s.Timings {
		if t.Stage == name {
			return t.TotalS
		}
	}
	return 0
}

func counterValue(s obs.Snapshot, name string) float64 {
	if m, ok := s.Metrics[name]; ok && m.Value != nil {
		return *m.Value
	}
	return 0
}

// runServe measures one served workload with blocks of the given size.
func runServe(e env, block int) (outcome, error) {
	ps := make([]relayd.SessionParams, serveSessions)
	ins := make([]kit.Blocks, serveSessions)
	for i := range ps {
		ps[i] = sessionParams(e.seed, i, block)
		ins[i] = kit.SeededBlocks(rng.ItemSeed(e.seed, 1000+i), max(1, inputSamples/block), block)
	}

	clock := newSpeedClock(e.nproc, func() (time.Duration, error) {
		t0 := time.Now()
		d, err := startDaemon(ps, ins)
		if err != nil {
			return 0, err
		}
		dt := time.Since(t0)
		return dt, d.close()
	})
	if _, err := clock.segment(); err != nil {
		return outcome{}, err
	}
	d, err := startDaemon(ps, ins)
	if err != nil {
		return outcome{}, err
	}
	fail := func(err error) (outcome, error) {
		d.close() // err is the one to report
		return outcome{}, err
	}

	// Warm up caches, connection buffers and the heap, and size the
	// round-trip sampling from the rate seen.
	warm := d.closedLoop(e.window(0.1), math.MaxInt)
	perSegment := float64(warm.blocks) / warm.wall.Seconds() * e.window(0.9).Seconds() / serveSegments
	stride := max(1, int(perSegment/keepSamples)+1)
	clock.restart()

	openPhase := block == 4096
	v := map[string]float64{}
	var spans []kit.Span
	if !e.traced {
		ph, err := d.phase(clock, e.window(0.9), stride)
		if err != nil {
			return fail(err)
		}
		v["setup_s"] = clock.setupS()
		v["ops_per_s"] = stats.Median(ph.rates)
		v["op_p50_us"] = stats.Median(ph.rttUS)
		fmt.Printf("# unscaled: ops_per_s %g over %d blocks; mean reference pass %g us\n",
			float64(ph.blocks)/ph.wall.Seconds(), ph.blocks, clock.meanPass())
	} else {
		share := 0.45
		if openPhase {
			share = 0.3
		}
		ref, err := d.phase(clock, e.window(share), stride)
		if err != nil {
			return fail(err)
		}
		ref.proc.Put(v, float64(ref.blocks), e.nproc)
		v["op_p99_us"] = stats.Percentile(ref.rttUS, 99)

		// Spans are kept for the blocks whose round trips are sampled, so
		// their memory does not grow with throughput either.
		epoch := time.Now()
		for _, s := range d.sess {
			s.tr, s.traceEvery = kit.NewTracer(epoch), stride
		}
		p0 := d.snapshot()
		d.ioOn.Store(true)
		traced, err := d.phase(clock, e.window(share), stride)
		if err != nil {
			return fail(err)
		}
		d.ioOn.Store(false)
		p1 := d.snapshot()
		var trs []*kit.Tracer
		for _, s := range d.sess {
			trs = append(trs, s.tr)
			s.tr = nil
		}
		spans = kit.Merge(trs...)
		v["trace.overhead_frac"] = stats.Median(traced.rttUS)/stats.Median(ref.rttUS) - 1
		splitServed(v, spans, p0, p1, traced, block)

		v["rt.lat_p50_frac"], v["rt.lat_p99_frac"], v["rt.late_frac"], v["loadgen.lag_p99_frac"] = 0, 0, 0, 0
		if openPhase {
			// Latency against a deadline is a property of this machine,
			// so the open loop is not scaled.
			period := time.Duration(float64(block) / openRate * float64(time.Second))
			ol := d.openLoop(e.window(share), period)
			us := float64(period) / 1e3
			v["rt.lat_p50_frac"] = stats.Median(ol.LatencyUS) / us
			v["rt.lat_p99_frac"] = stats.Percentile(ol.LatencyUS, 99) / us
			v["rt.late_frac"] = kit.Ratio(float64(ol.Late(period)), float64(len(ol.LatencyUS)))
			v["loadgen.lag_p99_frac"] = stats.Percentile(ol.LagUS, 99) / us
		}
		v["ref.pass_us"] = clock.meanPass()
		v["proc.peak_rss_mb"] = kit.PeakRSSMB()
		zero(v, fleetLayers, sweepLayers)
	}

	reg := d.srv.Registry().Snapshot()
	if e.traced {
		v["relayd.throttle_waits"] = counterValue(reg, "relayd.throttle_waits")
		v["relayd.io_errors"] = counterValue(reg, "relayd.io_errors")
	}
	var attempted, failed int64
	for _, s := range d.sess {
		attempted += int64(s.blocks + s.failed)
		failed += int64(s.failed)
	}
	closeErr := d.close()
	bad := d.verifyCRC()
	for _, i := range bad {
		fmt.Printf("# CRC gate: session %d output differs from its solo-chain replay\n", i)
	}
	if closeErr != nil {
		fmt.Printf("# close: %v\n", closeErr)
	}
	if !e.traced {
		v["mem_rss_mb"] = clock.rss()
	}
	return outcome{
		res:   kit.Result{Correct: len(bad) == 0 && closeErr == nil, Attempted: attempted, Failed: failed, Values: v},
		spans: spans,
	}, nil
}

// splitServed splits the traced phase's block round trip into the
// served path's layers, per block: the client's own codec work (the
// Process span's self time, over the traced blocks), its conn writes, the
// daemon's five pipeline stages and its OUT writes, and the rest of the
// daemon's turnaround — frame decode, the executor hand-off and any wait
// behind the other session, encode, reads. Each is a share of the round
// trip.
func splitServed(v map[string]float64, spans []kit.Span, p0, p1 daemonSnapshot, ph phase, block int) {
	var traced float64
	for _, s := range spans {
		if s.Parent < 0 {
			traced++
		}
	}
	rtt := kit.Ratio(float64(kit.Totals(spans)["relayd.Client.Process"]), traced)
	codec := kit.Ratio(float64(kit.SelfTimes(spans)["relayd.Client.Process"]), traced)
	n := float64(ph.blocks)
	client := p1.client.Sub(p0.client)
	server := p1.server.Sub(p0.server)
	executed := counterValue(p1.reg, "pipeline.batch.sessions") - counterValue(p0.reg, "pipeline.batch.sessions")
	sweeps := counterValue(p1.reg, "pipeline.batch.sweeps") - counterValue(p0.reg, "pipeline.batch.sweeps")

	var busyNS, stages float64
	for _, name := range pipeline.SessionStageNames() {
		key := "pipeline.relayd." + name
		ns := (timerSeconds(p1.reg, key) - timerSeconds(p0.reg, key)) * 1e9
		busyNS += ns
		// A stage timer runs once per sweep over every block in it.
		perBlock := kit.Ratio(ns, executed)
		stages += perBlock
		v["pipeline."+name+"_frac"] = kit.Ratio(perBlock, rtt)
	}
	serverWrite := float64(server.WriteNS) / n
	v["relayd.client_codec_frac"] = kit.Ratio(codec, rtt)
	v["relayd.client_write_frac"] = kit.Ratio(float64(client.WriteNS)/n, rtt)
	v["relayd.server_write_frac"] = kit.Ratio(serverWrite, rtt)
	v["relayd.daemon_other_frac"] = kit.Ratio(float64(client.ReadNS)/n-stages-serverWrite, rtt)
	v["relayd.wire_bytes_per_sample"] = kit.Ratio(float64(client.ReadBytes+client.WriteBytes), n*float64(block))
	v["pipeline.sessions_per_sweep"] = kit.Ratio(executed, sweeps)
	v["pipeline.executor_busy_frac"] = kit.Ratio(busyNS, float64(ph.wall))
}
