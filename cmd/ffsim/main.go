// Command ffsim runs the FastForward evaluation suite and prints the
// series behind each figure of the paper.
//
// Usage:
//
//	ffsim [-fig name] [-seed N] [-grid meters] [-stride n] [-workers n] [-sic-trials n]
//	      [-ident-locations n] [-ident-packets n] [-impair profile[,k=v...]]
//	      [-manifest out.json] [-pprof addr] [-cpuprofile f] [-memprofile f]
//
// -fig names one entry of the figure table (see figures) or all, the
// default, which runs Figs 12-18, deg and fleet. The rest run only by
// name: 1 (the Figs 1-2 coverage maps of the home, on the -grid), cancel
// (the Sec 3.3 characterization over -sic-trials placements), drift (the
// Sec 3.3 analog tuning under SI drift, re-tuned when it erodes, over
// -sic-trials placements and capped by the -impair floor), staleness (the
// Sec 4.2 CNF gain a held filter loses, per sounding interval), 21 (the
// Fig 21 identification study, sized by -ident-locations and
// -ident-packets) and sessions.
//
// -impair degrades the relay with a hardware-impairment profile (see
// internal/impair: ideal, mild, moderate, severe, harsh, or single-axis
// profiles like adc or stale-csi, optionally overlaid with key=value
// knobs). -fig deg sweeps the whole severity ladder per scenario and
// reports the graceful-degradation summary.
//
// -fig fleet runs the relay-pool sweep (internal/fleet): aggregate
// throughput and p99 client rate versus relay count × client density,
// with a forced severity event and rebalance per cell. It is shaped by
// -fleet-scenario, -fleet-relays, -fleet-clients, -fleet-cap, and
// -fleet-fail, and publishes the fleet.* metrics. -serve-mode wire
// serves every cell's admissions from live ffrelayd daemons on loopback
// TCP (fleet.ProcessPool) — books and fleet.* metrics are identical to
// -serve-mode local, one admitted session per cell is bit-verified
// against its local replica chain, and the fleet.wire.* transport
// metrics are recorded. -fleet-exec points at a built cmd/ffrelayd
// binary to spawn real subprocess daemons instead of in-process servers.
//
// -fig sessions is a machine benchmark rather than a paper figure: it
// binary-searches the largest number of concurrent 20 MHz full-duplex
// sessions whose relay chains hold the real-time deadline on one
// core and publishes the result as the pipeline.sessions_per_core gauge. It
// is excluded from -fig all because its numbers are wall-clock
// measurements of the host, not deterministic simulation output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fastforward/cmd/internal/runmeta"
	"fastforward/internal/cnf"
	"fastforward/internal/fleet"
	"fastforward/internal/floorplan"
	"fastforward/internal/ident"
	"fastforward/internal/impair"
	"fastforward/internal/phyrate"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
	"fastforward/internal/sic"
	"fastforward/internal/stats"
	"fastforward/internal/testbed"
)

// figure is one entry of the figure table.
type figure struct {
	name  string
	inAll bool // -fig all runs it
	run   func(*runCtx)
}

// figures is the one ordered list of -fig names: the flag's help,
// validate and main's dispatch all read it. The entries -fig all skips
// are single-result studies, most sized by their own flags, and, for
// sessions, a wall-clock measurement of the host.
var figures = []figure{
	{"1", false, fig1},
	{"cancel", false, figCancel},
	{"drift", false, figDrift},
	{"staleness", false, figStaleness},
	{"12", true, fig12},
	{"13", true, fig13},
	{"14", true, fig14},
	{"15", true, fig15},
	{"16", true, fig16},
	{"17", true, fig17},
	{"18", true, fig18},
	{"21", false, fig21},
	{"deg", true, figDeg},
	{"fleet", true, figFleet},
	{"sessions", false, figSessions},
}

// selected returns the figures -fig name runs, in table order; none for
// an unknown name.
func selected(name string) []figure {
	var out []figure
	for _, f := range figures {
		if f.name == name || (name == "all" && f.inAll) {
			out = append(out, f)
		}
	}
	return out
}

// options is ffsim's parsed command line.
type options struct {
	fig                          string
	seed                         int64
	grid                         float64
	stride, workers, sicTrials   int
	identLocations, identPackets int
	impair                       string
	// The fleet sweep's shape (-fig fleet).
	fleetScenario, fleetRelays, fleetClients, fleetFail string
	fleetCap                                            int
	serveMode, fleetExec                                string
}

// runCtx is what a figure's run func reads: the options, the figure
// sweeps' config built from them (its Obs is the run's registry, nil
// unless -manifest was given), and the sic.characterize stage's
// placements, nil when the stage did not run.
type runCtx struct {
	options
	cfg           testbed.Config
	characterized []sic.Characterization
}

// defineFlags registers ffsim's own flags on fs; the returned options
// are filled in when fs is parsed.
func defineFlags(fs *flag.FlagSet) *options {
	names := []string{"all"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	o := &options{}
	fs.StringVar(&o.fig, "fig", "all", "figure to reproduce: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.grid, "grid", 1.5, "client grid spacing in meters")
	fs.IntVar(&o.stride, "stride", 4, "subcarrier evaluation stride (1 = all 52)")
	fs.IntVar(&o.workers, "workers", 0, "sweep worker pool size (0 = one per CPU, 1 = serial; results identical)")
	fs.IntVar(&o.sicTrials, "sic-trials", 4, "cancellation-chain placements characterized for -fig cancel and the manifest's sic.* metrics (0 disables the manifest stage)")
	fs.IntVar(&o.identLocations, "ident-locations", 100, "-fig 21 client placements (paper: 100)")
	fs.IntVar(&o.identPackets, "ident-packets", 1000, "-fig 21 packets per client (paper: >=1000)")
	fs.StringVar(&o.impair, "impair", "", "impairment profile applied to every figure: name[,key=value...] (names: "+strings.Join(impair.Names(), ", ")+")")
	fs.StringVar(&o.fleetScenario, "fleet-scenario", "home", "fleet sweep floor plan (floorplan scenario name)")
	fs.StringVar(&o.fleetRelays, "fleet-relays", "1,2,4,8", "fleet sweep relay counts (comma-separated)")
	fs.StringVar(&o.fleetClients, "fleet-clients", "50,100,200", "fleet sweep client densities (comma-separated)")
	fs.StringVar(&o.fleetFail, "fleet-fail", "severe", "severity the forced fleet event drives the busiest relay to (ideal, mild, moderate, severe, harsh)")
	fs.IntVar(&o.fleetCap, "fleet-cap", 0, "fleet sweep per-relay session cap (0 = uncapped); a cap under the client density provokes session_limit spills")
	fs.StringVar(&o.serveMode, "serve-mode", "local", "fleet admission endpoint: local (in-process gates) or wire (live ffrelayd daemons on loopback TCP)")
	fs.StringVar(&o.fleetExec, "fleet-exec", "", "with -serve-mode wire: path to a built cmd/ffrelayd binary to spawn per relay (empty: in-process servers)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := validate(*o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	run := runmeta.Begin("ffsim")
	r := &runCtx{options: *o, cfg: testbed.DefaultConfig(o.seed)}
	r.cfg.GridSpacingM = o.grid
	r.cfg.CarrierStride = o.stride
	r.cfg.Workers = o.workers
	r.cfg.Obs = run.Registry()
	if o.impair != "" {
		p, err := impair.Parse(o.impair)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-impair: %v\n", err)
			os.Exit(2)
		}
		r.cfg.Impair = &p
		fmt.Printf("impairment profile %q: cancellation floor %.1f dB, CSI rho %.3f\n",
			p.Name, p.CancellationFloorDB(), p.AgingRho())
	}

	// Characterize the Sec 3.3 cancellation chain once: -fig cancel
	// prints its placements, and with a manifest requested its
	// sic.analog_db / sic.total_db land next to the figure's testbed
	// metrics. The figure sweeps themselves model cancellation as the
	// configured budget (cfg.CancellationDB) and never run the tuner, so
	// this stage is the only source of measured sic.* numbers.
	reg := r.cfg.Obs
	if o.fig == "cancel" || (reg != nil && o.sicTrials > 0) {
		stop := reg.Stage("sic.characterize")
		r.characterized = sic.Characterize(rng.New(o.seed), sic.DefaultCharacterizeConfig(o.sicTrials), reg)
		stop()
	}

	for _, f := range selected(o.fig) {
		stop := reg.Stage("fig" + f.name)
		f.run(r)
		stop()
	}
	run.Finish(o.seed, o.workers)
}

func printCDF(name string, c *stats.CDF) {
	fmt.Printf("  %s: n=%d median=%.2f p10=%.2f p90=%.2f\n",
		name, c.N(), c.Median(), c.Percentile(10), c.Percentile(90))
	for _, pt := range c.Points(9) {
		fmt.Printf("    x=%8.2f  cdf=%.2f\n", pt.X, pt.Y)
	}
}

func fig1(r *runCtx) {
	sc := floorplan.Scenario{Name: "home", Plan: floorplan.Home(), AP: floorplan.HomeAP(), Relay: floorplan.HomeRelay()}
	cells := testbed.Heatmap(sc, r.cfg)

	fmt.Println("== Figure 1: SNR heatmap (glyphs: ' '<5 '.'<10 ':'<15 '-'<20 '='<25 '+'<30 '*'>=30 dB) ==")
	fmt.Println("-- AP only --")
	fmt.Print(testbed.RenderSNR(sc, cells, false))
	fmt.Println("-- AP + FF relay --")
	fmt.Print(testbed.RenderSNR(sc, cells, true))

	fmt.Println("== Figure 2: usable spatial streams ==")
	fmt.Println("-- AP only --")
	fmt.Print(testbed.RenderStreams(sc, cells, false))
	fmt.Println("-- AP + FF relay --")
	fmt.Print(testbed.RenderStreams(sc, cells, true))

	s := testbed.Summarize(cells)
	fmt.Printf("summary: median SNR %.1f -> %.1f dB; 2-stream coverage %.0f%% -> %.0f%%\n",
		s.MedianAPOnlySNRdB, s.MedianFFSNRdB,
		100*s.FracAPOnlyTwoStreams, 100*s.FracFFStream2)
}

func figCancel(r *runCtx) {
	fmt.Println("== Sec 3.3: self-interference cancellation characterization ==")
	var analog, total []float64
	for i, c := range r.characterized {
		fmt.Printf("  placement %2d: analog %5.1f dB, total %5.1f dB\n", i, c.AnalogDB, c.TotalDB)
		analog = append(analog, c.AnalogDB)
		total = append(total, c.TotalDB)
	}
	ac := stats.NewCDF(analog)
	tc := stats.NewCDF(total)
	fmt.Printf("analog:  median %.1f dB (paper: ~70 dB; see EXPERIMENTS.md on the gap)\n", ac.Median())
	fmt.Printf("total:   median %.1f dB, min %.1f dB (paper: 108-110 dB)\n", tc.Median(), tc.Min())
	fmt.Printf("ceiling: %.0f dB (20 dBm TX over a -90 dBm floor)\n", sic.MaxCancellationDB)
}

// The -fig drift inputs. driftRho is the per-interval correlation of the
// SI path gains: its innovation, 1 − ρ² ≈ −37 dB of each path's power, is
// about what a 50–60 dB analog null tolerates, so some intervals erode it
// past the re-tune threshold and some do not. driftIntervals is enough
// intervals to show both; each re-tune costs a full tune.
const (
	driftIntervals = 5
	driftRho       = 0.9999
)

func figDrift(r *runCtx) {
	fmt.Printf("== Sec 3.3: analog cancellation under SI drift (rho %g per interval, %d intervals) ==\n",
		driftRho, driftIntervals)
	res := sic.CharacterizeDrift(rng.New(r.seed), sic.DefaultCharacterizeConfig(r.sicTrials),
		r.cfg.Impair, driftIntervals, driftRho, r.cfg.Obs)
	for i, dc := range res {
		fmt.Printf("  placement %2d: initial %5.1f dB, worst %5.1f dB, re-tunes %d, effective total %5.1f dB (floor %.1f dB)\n",
			i, dc.InitialDB, dc.MinAchievedDB, dc.Retunes, dc.EffectiveTotalDB, dc.FloorDB)
	}
	fmt.Println("  (a re-tune runs when the stale setting erodes 10 dB below its tune;")
	fmt.Println("   the total counts the worst interval and is capped by the -impair floor)")
}

// The -fig staleness inputs: a 300 ms coherence time (pedestrian-speed
// indoor channels), the paper's 20 dBm source over a -90 dBm floor, and
// 55 dB of relay gain, under the noise-rule bound (67 dB) of the study's
// 70 dB relay-to-destination loss, so the relayed noise stays below the
// floor.
const (
	stalenessCoherenceMs = 300
	stalenessAmpDB       = 55
)

func figStaleness(r *runCtx) {
	fmt.Printf("== Sec 4.2: CNF gain lost to a held filter (coherence %d ms) ==\n", stalenessCoherenceMs)
	// The sounding intervals bracket the paper's 50 ms.
	for _, iv := range []float64{10, 25, 50, 100, 200, 400} {
		res := cnf.StalenessStudy(rng.New(r.seed), cnf.SoundingConfig{
			CoherenceMs:        stalenessCoherenceMs,
			SoundingIntervalMs: iv,
			AmpDB:              stalenessAmpDB,
			Budget:             cnf.LinkBudget{TxPowerMW: 100, NoiseFloorMW: 1e-9, RelayNoiseMW: 1e-9},
		})
		fmt.Printf("  sounding every %4.0f ms: fresh %5.2f dB, stale %5.2f dB, loss %5.2f dB\n",
			iv, res.FreshGainDB, res.StaleGainDB, res.LossDB)
	}
	fmt.Println("  (paper: sounding every 50 ms costs little of the constructive gain)")
}

func fig12(r *runCtx) {
	fmt.Println("== Figure 12: overall relative throughput gains (2x2 MIMO) ==")
	res := testbed.RunFig12(r.cfg)
	fmt.Printf("  median FF vs AP-only: %.2fx  (paper: 3x)\n", res.MedianFFvsAP)
	fmt.Printf("  median FF vs half-duplex: %.2fx  (paper: 2.3x)\n", res.MedianFFvsHD)
	fmt.Printf("  edge (bottom 20%% AP-only) FF vs AP-only: %.2fx  (paper: 4x)\n", res.Edge20thFFvsAP)
	printCDF("FF gain vs HD baseline", res.FFGain)
	printCDF("AP-only gain vs HD baseline", res.APOnlyGain)
}

func fig13(r *runCtx) {
	fmt.Println("== Figure 13: absolute PHY throughput (Mbps) ==")
	res := testbed.RunFig13(r.cfg)
	printCDF("AP only", res.APOnly)
	printCDF("AP + half-duplex mesh", res.HalfDuplex)
	printCDF("AP + FF relay", res.FF)
}

func fig14(r *runCtx) {
	fmt.Println("== Figure 14: SISO gains (pure constructive SNR gain) ==")
	res := testbed.RunFig14(r.cfg)
	fmt.Printf("  median FF vs half-duplex: %.2fx  (paper: 1.6x)\n", res.MedianFFvsHD)
	fmt.Printf("  edge FF vs AP-only: %.2fx  (paper: ~4x tail)\n", res.Edge20thFFvsAP)
	printCDF("FF gain vs HD baseline", res.FFGain)
}

func fig15(r *runCtx) {
	fmt.Println("== Figure 15: gains by client class ==")
	res := testbed.RunFig15(r.cfg)
	for _, cls := range []phyrate.ClientClass{
		phyrate.LowSNRLowRank, phyrate.MediumSNRLowRank, phyrate.HighSNRHighRank,
	} {
		if cdf, ok := res.Gains[cls]; ok {
			fmt.Printf("  %-22s median %.2fx (n=%d)\n", cls, res.Medians[cls], cdf.N())
		}
	}
	fmt.Println("  (paper: 4x low/low, 1.7x medium/low, ~1.15x high/high)")
}

func fig16(r *runCtx) {
	fmt.Println("== Figure 16: median gain vs relay processing latency ==")
	lats := []float64{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	for _, p := range testbed.RunFig16(r.cfg, lats) {
		fmt.Printf("  latency %4.0f ns  median gain %.2fx\n", p.LatencyNs, p.MedianGain)
	}
	fmt.Println("  (paper: collapses beyond ~300 ns, worse than no relay)")
}

func fig17(r *runCtx) {
	fmt.Println("== Figure 17: amplify-and-forward only (no CNF) ==")
	res := testbed.RunFig17(r.cfg)
	fmt.Printf("  median AF vs AP-only: %.2fx  (paper: drops to ~1.5x)\n", res.MedianFFvsAP)
	printCDF("AF gain vs HD baseline", res.FFGain)
}

func fig18(r *runCtx) {
	fmt.Println("== Figure 18: median gain vs cancellation ==")
	cs := []float64{70, 74, 78, 82, 86, 90, 95, 100, 105, 110}
	for _, p := range testbed.RunFig18(r.cfg, cs) {
		fmt.Printf("  cancellation %5.0f dB  median gain %.2fx\n", p.CancellationDB, p.MedianGain)
	}
	fmt.Println("  (paper: gains shrink with less cancellation; the knee sits at")
	fmt.Println("   C ~ relayTX-noiseFloor, which is ~80 dB at this 0 dBm WARP-class")
	fmt.Println("   calibration vs 110 dB at the paper's 20 dBm/-90 dBm budget)")
}

func fig21(r *runCtx) {
	fmt.Println("== Figure 21: sender identification from channel fingerprints ==")
	for _, mode := range []struct {
		name      string
		threshold float64
	}{
		{"aggressive", ident.AggressiveThreshold},
		{"passive", ident.PassiveThreshold},
	} {
		cfg := ident.DefaultStudyConfig(mode.threshold)
		cfg.NLocations = r.identLocations
		cfg.PacketsPerClient = r.identPackets
		cfg.Workers = r.workers
		cfg.Obs = r.cfg.Obs
		res := ident.RunStudy(rng.New(r.seed), cfg)
		fp := stats.NewCDF(res.FalsePositivePct)
		fn := stats.NewCDF(res.FalseNegativePct)
		fmt.Printf("-- %s threshold (%.2f) --\n", mode.name, mode.threshold)
		fmt.Printf("  false positives: mean %.2f%%  median %.2f%%  p90 %.2f%%\n",
			fp.Mean(), fp.Median(), fp.Percentile(90))
		fmt.Printf("  false negatives: mean %.2f%%  median %.2f%%  p90 %.2f%%\n",
			fn.Mean(), fn.Median(), fn.Percentile(90))
		fmt.Println("  CDF of per-location false-negative rate:")
		for _, pt := range fn.Points(6) {
			fmt.Printf("    %5.1f%%  cdf=%.2f\n", pt.X, pt.Y)
		}
	}
	fmt.Println("(paper: ~5% false negatives, ~zero false positives at the aggressive threshold)")
}

func figDeg(r *runCtx) {
	fmt.Println("== Degradation: graceful fallback across the impairment severity ladder ==")
	for _, sc := range floorplan.Scenarios() {
		fmt.Printf("  scenario %s:\n", sc.Name)
		fmt.Println("    profile     effC(dB)  relay(Mbps)  gain-vs-HD  maxAmp(dB)  miss  stale  blind")
		for _, p := range testbed.RunDegradation(sc, r.cfg, impair.SeverityLadder()) {
			fmt.Printf("    %-10s  %8.1f  %11.2f  %10.2f  %10.2f  %4d  %5d  %5d\n",
				p.Profile, p.EffectiveCancellationDB, p.MeanRelayMbps, p.MedianGainVsHD,
				p.MaxAmpDB, p.SoundingMissRounds, p.StaleFilterClients, p.BlindFallbacks)
		}
	}
	fmt.Println("  (cancellation loss is monotone by construction; amplification clamps to")
	fmt.Println("   the residual-aware noise rule, so throughput degrades without feedback")
	fmt.Println("   instability — the relay fails soft toward the no-relay baseline)")
}

func figFleet(r *runCtx) {
	wire := r.serveMode == "wire"
	relays, err := parseIntList(r.fleetRelays)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-fleet-relays: %v\n", err)
		os.Exit(2)
	}
	clients, err := parseIntList(r.fleetClients)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-fleet-clients: %v\n", err)
		os.Exit(2)
	}
	sev, ok := impair.SeverityRank(r.fleetFail)
	if !ok {
		ladder := make([]string, 5)
		for i := range ladder {
			ladder[i] = impair.SeverityName(i)
		}
		fmt.Fprintf(os.Stderr, "-fleet-fail: %q is not on the severity ladder (%s)\n",
			r.fleetFail, strings.Join(ladder, ", "))
		os.Exit(2)
	}

	cfg := fleet.DefaultSweepConfig(r.seed)
	cfg.ScenarioName = r.fleetScenario
	cfg.RelayCounts = relays
	cfg.ClientCounts = clients
	cfg.FailSeverity = sev
	cfg.Workers = r.workers
	cfg.Obs = r.cfg.Obs
	cfg.Pool.MaxSessionsPerRelay = r.fleetCap
	cfg.ServeWire = wire
	cfg.WireExec = r.fleetExec
	res, err := fleet.RunSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet sweep: %v\n", err)
		os.Exit(2)
	}

	fmt.Println("== Fleet: aggregate throughput and p99 client rate vs relay count x client density ==")
	fmt.Printf("  scenario %s, forced event: busiest relay driven to %q, one rebalance\n",
		res.Scenario, impair.SeverityName(sev))
	if wire {
		served := "in-process relayd servers"
		if r.fleetExec != "" {
			served = "ffrelayd subprocesses (" + r.fleetExec + ")"
		}
		fmt.Printf("  serve-mode wire: admissions over loopback TCP to %s, one session per cell bit-verified\n", served)
	}
	fmt.Println("  relays clients assigned refused spilled | agg(Mbps)  p99(Mbps) | mig strand  agg'(Mbps) p99'(Mbps)")
	for _, c := range res.Cells {
		fmt.Printf("  %6d %7d %8d %7d %7d | %9.1f %10.3f | %3d %6d  %10.1f %10.3f\n",
			c.Relays, c.Clients, c.Assigned, c.Refused, c.Spilled,
			c.Healthy.AggregateMbps, c.Healthy.P99Mbps,
			c.Migrations, c.Stranded,
			c.Failed.AggregateMbps, c.Failed.P99Mbps)
	}
	fmt.Println("  (primed columns are the post-event service level: clients migrate off the")
	fmt.Println("   degraded relay make-before-break, spill to the next-best fingerprint match,")
	fmt.Println("   or strand on the dark relay with their sticky grant)")
}

func figSessions(r *runCtx) {
	fmt.Println("== Sessions: concurrent real-time 20 MHz sessions per core ==")
	res := pipeline.RunSessionSweep(r.cfg.Obs, pipeline.SessionConfig{Seed: r.seed})
	fmt.Printf("  sessions/core=%3d  deadline=%8.1fus  sweep=%8.1fus  per-session=%8.1fus\n",
		res.Sessions, res.DeadlineNS/1e3, res.NSPerSweep/1e3, res.NSPerSession/1e3)
	for _, p := range res.Probes {
		mark := "miss"
		if p.RealTime {
			mark = "ok"
		}
		fmt.Printf("    probe n=%3d  sweep=%8.1fus  %s\n", p.Sessions, p.NSPerSweep/1e3, mark)
	}
	fmt.Printf("  (deadline is the air time of one %d-sample block at %.0f MHz;\n",
		res.Config.BlockSamples, pipeline.SessionSampleRateHz/1e6)
	fmt.Printf("   a count of N means N relay chains — %d-tap cancel, CFO\n",
		res.Config.CancelTaps)
	fmt.Printf("   remove/restore, %d-tap CNF, amplify — keep up with the air interface)\n",
		res.Config.CNFTaps)
}

// validate rejects a command line before any work starts: an unknown
// figure or serve mode, a grid spacing that would never advance across
// the floor plan, and counts that would leave a printed median NaN.
func validate(o options) error {
	switch {
	case len(selected(o.fig)) == 0:
		return fmt.Errorf("unknown figure %q", o.fig)
	case o.serveMode != "local" && o.serveMode != "wire":
		return fmt.Errorf("unknown -serve-mode %q (want local or wire)", o.serveMode)
	case !(o.grid > 0):
		return fmt.Errorf("-grid %v: want a positive spacing in meters", o.grid)
	case o.sicTrials < 0:
		return fmt.Errorf("-sic-trials %d: want 0 or more placements", o.sicTrials)
	case (o.fig == "cancel" || o.fig == "drift") && o.sicTrials < 1:
		return fmt.Errorf("-fig %s needs -sic-trials of at least 1 (got %d)", o.fig, o.sicTrials)
	case o.fig == "21" && (o.identLocations < 1 || o.identPackets < 1):
		return fmt.Errorf("-fig 21 needs -ident-locations and -ident-packets of at least 1 (got %d, %d)",
			o.identLocations, o.identPackets)
	}
	return nil
}

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q (want positive integers)", p)
		}
		out = append(out, v)
	}
	return out, nil
}
