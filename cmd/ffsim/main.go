// Command ffsim runs the FastForward evaluation suite and prints the
// series behind each figure of the paper (Figs 12-18).
//
// Usage:
//
//	ffsim [-fig all|12|13|14|15|16|17|18|deg|fleet|sessions] [-seed N] [-grid meters] [-stride n] [-workers n]
//	      [-impair profile[,k=v...]] [-manifest out.json] [-pprof addr] [-cpuprofile f] [-memprofile f]
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
// sessions whose batched relay chains hold the real-time deadline on one
// core and publishes the result as the pipeline.sessions_per_core gauge. It
// is excluded from -fig all because its numbers are wall-clock
// measurements of the host, not deterministic simulation output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fastforward/cmd/internal/runmeta"
	"fastforward/internal/fleet"
	"fastforward/internal/floorplan"
	"fastforward/internal/impair"
	"fastforward/internal/obs"
	"fastforward/internal/phyrate"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
	"fastforward/internal/sic"
	"fastforward/internal/stats"
	"fastforward/internal/testbed"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: all, 12, 13, 14, 15, 16, 17, 18, deg, fleet")
	seed := flag.Int64("seed", 1, "simulation seed")
	grid := flag.Float64("grid", 1.5, "client grid spacing in meters")
	stride := flag.Int("stride", 4, "subcarrier evaluation stride (1 = all 52)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = one per CPU, 1 = serial; results identical)")
	sicTrials := flag.Int("sic-trials", 4, "cancellation-chain placements characterized for the manifest's sic.* metrics (0 disables)")
	impairFlag := flag.String("impair", "", "impairment profile applied to every figure: name[,key=value...] (names: "+strings.Join(impair.Names(), ", ")+")")
	fleetScenario := flag.String("fleet-scenario", "home", "fleet sweep floor plan (floorplan scenario name)")
	fleetRelays := flag.String("fleet-relays", "1,2,4,8", "fleet sweep relay counts (comma-separated)")
	fleetClients := flag.String("fleet-clients", "50,100,200", "fleet sweep client densities (comma-separated)")
	fleetFail := flag.String("fleet-fail", "severe", "severity the forced fleet event drives the busiest relay to (ideal, mild, moderate, severe, harsh)")
	fleetCap := flag.Int("fleet-cap", 0, "fleet sweep per-relay session cap (0 = uncapped); a cap under the client density provokes session_limit spills")
	serveMode := flag.String("serve-mode", "local", "fleet admission endpoint: local (in-process gates) or wire (live ffrelayd daemons on loopback TCP)")
	fleetExec := flag.String("fleet-exec", "", "with -serve-mode wire: path to a built cmd/ffrelayd binary to spawn per relay (empty: in-process servers)")
	flag.Parse()

	run := runmeta.Begin("ffsim")
	cfg := testbed.DefaultConfig(*seed)
	cfg.GridSpacingM = *grid
	cfg.CarrierStride = *stride
	cfg.Workers = *workers
	cfg.Obs = run.Registry()
	if *impairFlag != "" {
		p, err := impair.Parse(*impairFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-impair: %v\n", err)
			os.Exit(2)
		}
		cfg.Impair = &p
		fmt.Printf("impairment profile %q: cancellation floor %.1f dB, CSI rho %.3f\n",
			p.Name, p.CancellationFloorDB(), p.AgingRho())
	}

	// With a manifest requested, characterize the Sec 3.3 cancellation
	// chain so sic.analog_db / sic.total_db land next to the figure's
	// testbed metrics. The figure sweeps themselves model cancellation as
	// the configured budget (cfg.CancellationDB) and never run the tuner,
	// so this stage is the only source of measured sic.* numbers.
	if reg := run.Registry(); reg != nil && *sicTrials > 0 {
		stop := reg.Stage("sic.characterize")
		sic.Characterize(rng.New(*seed), sic.DefaultCharacterizeConfig(*sicTrials), reg)
		stop()
	}

	runFig := func(name string, f func(testbed.Config)) {
		if *fig == "all" || *fig == name {
			stop := cfg.Obs.Stage("fig" + name)
			f(cfg)
			stop()
		}
	}
	runFig("12", fig12)
	runFig("13", fig13)
	runFig("14", fig14)
	runFig("15", fig15)
	runFig("16", fig16)
	runFig("17", fig17)
	runFig("18", fig18)
	runFig("deg", figDeg)
	if *serveMode != "local" && *serveMode != "wire" {
		fmt.Fprintf(os.Stderr, "unknown -serve-mode %q (want local or wire)\n", *serveMode)
		os.Exit(2)
	}
	runFig("fleet", func(cfg testbed.Config) {
		figFleet(fleetOpts{
			scenario:   *fleetScenario,
			relayList:  *fleetRelays,
			clientList: *fleetClients,
			fail:       *fleetFail,
			cap:        *fleetCap,
			wire:       *serveMode == "wire",
			exec:       *fleetExec,
		}, *seed, *workers, run.Registry())
	})
	// The sessions sweep is a wall-clock machine benchmark, not a paper
	// figure: it only runs when asked for, never under "all".
	if *fig == "sessions" {
		stop := cfg.Obs.Stage("figsessions")
		figSessions(run.Registry(), *seed)
		stop()
	}
	if *fig != "all" {
		switch *fig {
		case "12", "13", "14", "15", "16", "17", "18", "deg", "fleet", "sessions":
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
	}
	run.Finish(*seed, *workers)
}

func printCDF(name string, c *stats.CDF) {
	fmt.Printf("  %s: n=%d median=%.2f p10=%.2f p90=%.2f\n",
		name, c.N(), c.Median(), c.Percentile(10), c.Percentile(90))
	for _, pt := range c.Points(9) {
		fmt.Printf("    x=%8.2f  cdf=%.2f\n", pt.X, pt.Y)
	}
}

func fig12(cfg testbed.Config) {
	fmt.Println("== Figure 12: overall relative throughput gains (2x2 MIMO) ==")
	r := testbed.RunFig12(cfg)
	fmt.Printf("  median FF vs AP-only: %.2fx  (paper: 3x)\n", r.MedianFFvsAP)
	fmt.Printf("  median FF vs half-duplex: %.2fx  (paper: 2.3x)\n", r.MedianFFvsHD)
	fmt.Printf("  edge (bottom 20%% AP-only) FF vs AP-only: %.2fx  (paper: 4x)\n", r.Edge20thFFvsAP)
	printCDF("FF gain vs HD baseline", r.FFGain)
	printCDF("AP-only gain vs HD baseline", r.APOnlyGain)
}

func fig13(cfg testbed.Config) {
	fmt.Println("== Figure 13: absolute PHY throughput (Mbps) ==")
	r := testbed.RunFig13(cfg)
	printCDF("AP only", r.APOnly)
	printCDF("AP + half-duplex mesh", r.HalfDuplex)
	printCDF("AP + FF relay", r.FF)
}

func fig14(cfg testbed.Config) {
	fmt.Println("== Figure 14: SISO gains (pure constructive SNR gain) ==")
	r := testbed.RunFig14(cfg)
	fmt.Printf("  median FF vs half-duplex: %.2fx  (paper: 1.6x)\n", r.MedianFFvsHD)
	fmt.Printf("  edge FF vs AP-only: %.2fx  (paper: ~4x tail)\n", r.Edge20thFFvsAP)
	printCDF("FF gain vs HD baseline", r.FFGain)
}

func fig15(cfg testbed.Config) {
	fmt.Println("== Figure 15: gains by client class ==")
	r := testbed.RunFig15(cfg)
	for _, cls := range []phyrate.ClientClass{
		phyrate.LowSNRLowRank, phyrate.MediumSNRLowRank, phyrate.HighSNRHighRank,
	} {
		if cdf, ok := r.Gains[cls]; ok {
			fmt.Printf("  %-22s median %.2fx (n=%d)\n", cls, r.Medians[cls], cdf.N())
		}
	}
	fmt.Println("  (paper: 4x low/low, 1.7x medium/low, ~1.15x high/high)")
}

func fig16(cfg testbed.Config) {
	fmt.Println("== Figure 16: median gain vs relay processing latency ==")
	lats := []float64{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}
	for _, p := range testbed.RunFig16(cfg, lats) {
		fmt.Printf("  latency %4.0f ns  median gain %.2fx\n", p.LatencyNs, p.MedianGain)
	}
	fmt.Println("  (paper: collapses beyond ~300 ns, worse than no relay)")
}

func fig17(cfg testbed.Config) {
	fmt.Println("== Figure 17: amplify-and-forward only (no CNF) ==")
	r := testbed.RunFig17(cfg)
	fmt.Printf("  median AF vs AP-only: %.2fx  (paper: drops to ~1.5x)\n", r.MedianFFvsAP)
	printCDF("AF gain vs HD baseline", r.FFGain)
}

func figDeg(cfg testbed.Config) {
	fmt.Println("== Degradation: graceful fallback across the impairment severity ladder ==")
	for _, sc := range floorplan.Scenarios() {
		fmt.Printf("  scenario %s:\n", sc.Name)
		fmt.Println("    profile     effC(dB)  relay(Mbps)  gain-vs-HD  maxAmp(dB)  miss  stale  blind")
		for _, p := range testbed.RunDegradation(sc, cfg, impair.SeverityLadder()) {
			fmt.Printf("    %-10s  %8.1f  %11.2f  %10.2f  %10.2f  %4d  %5d  %5d\n",
				p.Profile, p.EffectiveCancellationDB, p.MeanRelayMbps, p.MedianGainVsHD,
				p.MaxAmpDB, p.SoundingMissRounds, p.StaleFilterClients, p.BlindFallbacks)
		}
	}
	fmt.Println("  (cancellation loss is monotone by construction; amplification clamps to")
	fmt.Println("   the residual-aware noise rule, so throughput degrades without feedback")
	fmt.Println("   instability — the relay fails soft toward the no-relay baseline)")
}

// fleetOpts bundles the fleet sweep's command-line shape.
type fleetOpts struct {
	scenario   string
	relayList  string
	clientList string
	fail       string
	cap        int
	wire       bool
	exec       string
}

func figFleet(opts fleetOpts, seed int64, workers int, reg *obs.Registry) {
	relays, err := parseIntList(opts.relayList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-fleet-relays: %v\n", err)
		os.Exit(2)
	}
	clients, err := parseIntList(opts.clientList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-fleet-clients: %v\n", err)
		os.Exit(2)
	}
	sev, ok := impair.SeverityRank(opts.fail)
	if !ok {
		ladder := make([]string, 5)
		for i := range ladder {
			ladder[i] = impair.SeverityName(i)
		}
		fmt.Fprintf(os.Stderr, "-fleet-fail: %q is not on the severity ladder (%s)\n",
			opts.fail, strings.Join(ladder, ", "))
		os.Exit(2)
	}

	cfg := fleet.DefaultSweepConfig(seed)
	cfg.ScenarioName = opts.scenario
	cfg.RelayCounts = relays
	cfg.ClientCounts = clients
	cfg.FailSeverity = sev
	cfg.Workers = workers
	cfg.Obs = reg
	cfg.Pool.MaxSessionsPerRelay = opts.cap
	cfg.ServeWire = opts.wire
	cfg.WireExec = opts.exec
	res, err := fleet.RunSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet sweep: %v\n", err)
		os.Exit(2)
	}

	fmt.Println("== Fleet: aggregate throughput and p99 client rate vs relay count x client density ==")
	fmt.Printf("  scenario %s, forced event: busiest relay driven to %q, one rebalance\n",
		res.Scenario, impair.SeverityName(sev))
	if opts.wire {
		served := "in-process relayd servers"
		if opts.exec != "" {
			served = "ffrelayd subprocesses (" + opts.exec + ")"
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

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q (want positive integers)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func figSessions(reg *obs.Registry, seed int64) {
	fmt.Println("== Sessions: concurrent real-time 20 MHz sessions per core ==")
	r := pipeline.RunSessionSweep(reg, pipeline.SessionConfig{Seed: seed})
	fmt.Printf("  sessions/core=%3d  deadline=%8.1fus  sweep=%8.1fus  per-session=%8.1fus\n",
		r.Sessions, r.DeadlineNS/1e3, r.NSPerSweep/1e3, r.NSPerSession/1e3)
	for _, p := range r.Probes {
		mark := "miss"
		if p.RealTime {
			mark = "ok"
		}
		fmt.Printf("    probe n=%3d  sweep=%8.1fus  %s\n", p.Sessions, p.NSPerSweep/1e3, mark)
	}
	fmt.Printf("  (deadline is the air time of one %d-sample block at %.0f MHz;\n",
		r.Config.BlockSamples, r.Config.SampleRateHz/1e6)
	fmt.Printf("   a count of N means N batched relay chains — %d-tap cancel, CFO\n",
		r.Config.CancelTaps)
	fmt.Printf("   remove/restore, %d-tap CNF, amplify — keep up with the air interface)\n",
		r.Config.CNFTaps)
}

func fig18(cfg testbed.Config) {
	fmt.Println("== Figure 18: median gain vs cancellation ==")
	cs := []float64{70, 74, 78, 82, 86, 90, 95, 100, 105, 110}
	for _, p := range testbed.RunFig18(cfg, cs) {
		fmt.Printf("  cancellation %5.0f dB  median gain %.2fx\n", p.CancellationDB, p.MedianGain)
	}
	fmt.Println("  (paper: gains shrink with less cancellation; the knee sits at")
	fmt.Println("   C ~ relayTX-noiseFloor, which is ~80 dB at this 0 dBm WARP-class")
	fmt.Println("   calibration vs 110 dB at the paper's 20 dBm/-90 dBm budget)")
}
