package main

import (
	"fmt"
	"math"
	"time"

	"fastforward/bench/kit"
	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/floorplan"
	"fastforward/internal/linalg"
	"fastforward/internal/phyrate"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/stats"
	"fastforward/internal/testbed"
)

// The sweep workload is the figure path: testbed.New and RunAll over the
// four floor-plan scenarios (every 4th carrier, two workers), pass after
// pass on the same seed until the time is up. The grid is coarser than
// the published 1.5 m so that each scenario runs several times in one
// run. Every repeated pass must reproduce the first bit for bit, and
// every 8th client is evaluated again on its own and must match its
// RunAll slot.
const (
	sweepGridM   = 3.0
	sweepStride  = 4
	sweepWorkers = 2
	sweepEvery   = 8
)

func sweepConfig(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig(seed)
	cfg.GridSpacingM = sweepGridM
	cfg.CarrierStride = sweepStride
	cfg.Workers = sweepWorkers
	return cfg
}

// sweepScenario is one scenario's testbed and what its passes measured.
type sweepScenario struct {
	sc    floorplan.Scenario
	cfg   testbed.Config
	tb    *testbed.Testbed
	grid  []floorplan.Point
	evs   []testbed.Evaluation // the first pass
	walls []float64            // each pass's RunAll time in seconds, scaled
	last  time.Duration        // the latest pass, unscaled
}

func newTestbeds(seed int64) []*sweepScenario {
	var out []*sweepScenario
	for _, sc := range floorplan.Scenarios() {
		cfg := sweepConfig(seed)
		out = append(out, &sweepScenario{sc: sc, cfg: cfg, tb: testbed.New(sc, cfg)})
	}
	return out
}

func runSweep(e env) (outcome, error) {
	clock := newSpeedClock(e.nproc, func() (time.Duration, error) {
		t0 := time.Now()
		newTestbeds(e.seed)
		return time.Since(t0), nil
	})
	if _, err := clock.segment(); err != nil {
		return outcome{}, err
	}
	scs := newTestbeds(e.seed)
	for _, s := range scs {
		s.grid = s.tb.ClientGrid()
	}

	window := e.window(1)
	if e.traced {
		window = e.window(0.5)
	}
	mismatches := 0
	var clients int
	var proc kit.ProcTotals
	// opUS is, per pass, how long a client evaluation held one of the
	// workers: the scaled pass time × workers ÷ clients. RunAll hides the
	// single evaluations, so this is the per-client latency it shows.
	var opUS []float64
	start := time.Now()
	for i := 0; ; i++ {
		s := scs[i%len(scs)]
		// After the first pass, start a RunAll only if, as long as its
		// last one took, it ends in time.
		if i >= len(scs) && time.Since(start)+s.last+probeDur > window {
			break
		}
		c0 := kit.ReadProc()
		evs := s.tb.RunAll()
		d := kit.ReadProc().Since(c0)
		f, err := clock.segment()
		if err != nil {
			return outcome{}, err
		}
		proc.Add(d, f)
		clients += len(evs)
		s.last = d.Wall
		s.walls = append(s.walls, d.Wall.Seconds()*f)
		opUS = append(opUS, d.Wall.Seconds()*f*1e6*sweepWorkers/float64(len(evs)))
		if s.evs == nil {
			s.evs = evs
			continue
		}
		for j := range evs {
			if !sameEvaluation(evs[j], s.evs[j]) {
				mismatches++
				fmt.Printf("# sweep gate: %s pass %d client %d differs from the first pass\n", s.sc.Name, len(s.walls), j)
			}
		}
	}

	// The serial gate; traced runs also time it as the reference for the
	// replay below.
	type gateClient struct {
		s  *sweepScenario
		j  int
		us float64 // scaled
		ns float64 // unscaled
	}
	var gate []*gateClient
	for _, s := range scs {
		for j := 0; j < len(s.grid); j += sweepEvery {
			t0 := time.Now()
			ev := s.tb.EvaluateClient(s.grid[j])
			gate = append(gate, &gateClient{s: s, j: j, ns: float64(time.Since(t0))})
			if !sameEvaluation(ev, s.evs[j]) {
				mismatches++
				fmt.Printf("# sweep gate: %s client %d differs from its RunAll slot\n", s.sc.Name, j)
			}
		}
	}
	f, err := clock.segment()
	if err != nil {
		return outcome{}, err
	}
	for _, g := range gate {
		g.us = g.ns / 1e3 * f
	}

	v := map[string]float64{}
	var spans []kit.Span
	if !e.traced {
		var pass, passS float64
		for _, s := range scs {
			pass += float64(len(s.grid))
			passS += stats.Median(s.walls)
		}
		v["setup_s"] = clock.setupS()
		v["ops_per_s"] = kit.Ratio(pass, passS)
		v["op_p50_us"] = stats.Median(opUS)
		v["mem_rss_mb"] = clock.rss()
		fmt.Printf("# unscaled: ops_per_s %g over %d clients; mean reference pass %g us\n",
			kit.Ratio(float64(clients), proc.Wall.Seconds()), clients, clock.meanPass())
	} else {
		proc.Put(v, float64(clients), e.nproc)
		var serialUS []float64
		var evalNS float64
		for _, g := range gate {
			serialUS = append(serialUS, g.us)
			evalNS += g.ns
		}
		v["op_p99_us"] = stats.Percentile(serialUS, 99)
		v["par.busy_frac"] = kit.Ratio(proc.CPU.Seconds(), proc.Wall.Seconds()*sweepWorkers)
		tr := kit.NewTracer(time.Now())
		for i, g := range gate {
			ap := replayClient(tr, uint64(i+1), g.s, g.s.grid[g.j])
			if math.Float64bits(ap) != math.Float64bits(g.s.evs[g.j].APOnlyMbps) {
				mismatches++
				fmt.Printf("# sweep gate: traced replay of %s client %d gives %v Mbps AP-only, RunAll %v\n",
					g.s.sc.Name, g.j, ap, g.s.evs[g.j].APOnlyMbps)
			}
		}
		spans = tr.Spans
		tot := kit.Totals(spans)
		root := float64(tot["testbed.client"])
		v["trace.overhead_frac"] = kit.Ratio(root, evalNS) - 1
		self := kit.SelfTimes(spans)
		for _, layer := range []string{"floorplan.trace", "floorplan.channel", "relay.amp", "cnf.desired", "cnf.synth", "phyrate.rate"} {
			v[layer+"_frac"] = kit.Ratio(float64(self[layer]), root)
		}
		v["testbed.unattributed_frac"] = kit.Ratio(float64(self["testbed.client"]), root)
		v["ref.pass_us"] = clock.meanPass()
		v["proc.peak_rss_mb"] = kit.PeakRSSMB()
		zero(v, servedLayers, fleetLayers)
	}
	return outcome{
		res:   kit.Result{Correct: mismatches == 0, Attempted: int64(clients), Values: v},
		spans: spans,
	}, nil
}

// sameEvaluation compares two evaluations bit for bit.
func sameEvaluation(a, b testbed.Evaluation) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.Location.X, b.Location.X) && same(a.Location.Y, b.Location.Y) &&
		same(a.APOnlyMbps, b.APOnlyMbps) && same(a.HalfDuplexMbps, b.HalfDuplexMbps) &&
		same(a.RelayMbps, b.RelayMbps) && same(a.APOnlySNRdB, b.APOnlySNRdB) &&
		a.APOnlyStreams == b.APOnlyStreams && a.RelayStreams == b.RelayStreams &&
		a.APOnlyRank == b.APOnlyRank && a.RelayRank == b.RelayRank && a.Class == b.Class
}

// clientSeed is the testbed's per-location seed derivation, which a
// replay must follow to draw the same channels.
func clientSeed(base int64, p floorplan.Point) int64 {
	s := rng.ItemSeed(base, int(int64(math.Float64bits(p.X))))
	return rng.ItemSeed(s, int(int64(math.Float64bits(p.Y))))
}

// replayClient repeats testbed.EvaluateClient's calls into the layers
// below it for one client of the published configuration (2×2 MIMO,
// synthesized CNF filter, noise rule, no impairments), with a span
// around each call, and returns the AP-only rate, which must equal the
// RunAll result bit for bit. The testbed's own arithmetic between the
// calls stays in the root span's self time.
func replayClient(tr *kit.Tracer, id uint64, ps *sweepScenario, client floorplan.Point) float64 {
	const (
		nAnt    = 2
		diffuse = 0.2
	)
	cfg, sc := ps.cfg, ps.sc
	apRelay := sc.Plan.Trace(sc.AP, sc.Relay, 2) // testbed.New's, not a per-client call
	p := ps.tb.Params()
	fs := p.SampleRate
	var carriers []int
	for i, k := range p.DataCarriers {
		if i%cfg.CarrierStride == 0 {
			carriers = append(carriers, k)
		}
	}
	root := tr.Begin(id, "testbed.client", -1)
	defer tr.End(root)
	span := func(name string, f func()) {
		sp := tr.Begin(id, name, root)
		f()
		tr.End(sp)
	}
	src := rng.New(clientSeed(cfg.Seed, client))

	var sd, rd []floorplan.Path
	span("floorplan.trace", func() {
		sd = sc.Plan.Trace(sc.AP, client, 2)
		rd = sc.Plan.Trace(sc.Relay, client, 2)
	})
	txMW := dsp.WattsFromDBm(cfg.TxPowerDBm) * 1000
	n0 := channel.NoiseFloorMW() * dsp.Linear(cfg.NoiseFigureDB)
	rxAtRelayDBm := cfg.TxPowerDBm + floorplan.AveragePowerGainDB(apRelay)
	var amp relay.AmpDecision
	span("relay.amp", func() {
		amp = relay.ChooseAmplificationDB(cfg.CancellationDB, -floorplan.AveragePowerGainDB(rd),
			cfg.RelayMaxTxDBm-rxAtRelayDBm, cfg.NoiseRule)
	})
	useful, isiFrac := ps.tb.CPOverlap(minDelay(sd), maxDelay(apRelay)+maxDelay(rd)+cfg.ProcessingDelayNs*1e-9)
	relayTxMW := txMW * dsp.Linear(floorplan.AveragePowerGainDB(apRelay)) * dsp.Linear(amp.AmpDB)
	relayNoiseMW := n0 + relayTxMW*dsp.Linear(-cfg.CancellationDB)

	Hsd := make([]*linalg.Matrix, len(carriers))
	Hsr := make([]*linalg.Matrix, len(carriers))
	Hrd := make([]*linalg.Matrix, len(carriers))
	span("floorplan.channel", func() {
		msd := floorplan.MIMOChannelDiffuse(sd, nAnt, nAnt, fs, src, diffuse)
		msr := floorplan.MIMOChannelDiffuse(apRelay, nAnt, nAnt, fs, src, diffuse)
		mrd := floorplan.MIMOChannelDiffuse(rd, nAnt, nAnt, fs, src, diffuse)
		for i, k := range carriers {
			Hsd[i] = msd.FrequencyResponse(k, p.NFFT)
			Hsr[i] = msr.FrequencyResponse(k, p.NFFT)
			Hrd[i] = mrd.FrequencyResponse(k, p.NFFT)
		}
	})
	var apOnly float64
	span("phyrate.rate", func() {
		apOnly = phyrate.MIMORateMbps(p, Hsd, nil, txMW, n0).RateMbps
		phyrate.MIMORateMbps(p, Hsr, nil, txMW, n0)
		phyrate.MIMORateMbps(p, Hrd, nil, txMW, n0)
	})
	var FA []*linalg.Matrix
	span("cnf.desired", func() { FA = cnf.DesiredMIMO(Hsd, Hsr, Hrd, amp.AmpDB, src) })
	span("cnf.synth", func() {
		FA = cnf.SynthesizeMIMO(FA, carriers, p.NFFT, fs).ApplyImplementation(carriers, p.NFFT, fs)
	})
	Heff := make([]*linalg.Matrix, len(carriers))
	cov := make([]*linalg.Matrix, len(carriers))
	for i := range carriers {
		gain := Hrd[i].Mul(FA[i])
		rel := gain.Mul(Hsr[i])
		Heff[i] = Hsd[i].Add(rel.Scale(useful))
		cov[i] = phyrate.NoiseCovariance(gain.Scale(useful), n0, relayNoiseMW)
		if isiFrac > 0 {
			g, r := gain.FrobeniusNorm(), rel.FrobeniusNorm()
			isi := isiFrac * (r*r*txMW/nAnt + g*g*relayNoiseMW) / nAnt
			for d := 0; d < nAnt; d++ {
				cov[i].Set(d, d, cov[i].At(d, d)+complex(isi, 0))
			}
		}
	}
	span("phyrate.rate", func() { phyrate.MIMORateMbps(p, Heff, cov, txMW, n0) })
	return apOnly
}

func minDelay(paths []floorplan.Path) float64 {
	if len(paths) == 0 {
		return 0
	}
	d := math.Inf(1)
	for _, p := range paths {
		d = math.Min(d, p.DelayS)
	}
	return d
}

func maxDelay(paths []floorplan.Path) float64 {
	var d float64
	for _, p := range paths {
		d = math.Max(d, p.DelayS)
	}
	return d
}
