// Command ffbench is the FastForward benchmark. Four workloads drive the
// served relay (internal/relayd over loopback TCP, with internal/pipeline
// under it), fleet admission over the wire (internal/fleet), and the
// figure sweep (internal/testbed) through their public APIs only, timing
// every call from the outside.
//
// One workload, in this process, printing one JSON result as the last
// line of standard output:
//
//	ffbench --workload serve-4096 --seed 1 --seconds 20 --trace 0
//
// Every workload, one child process each, printing each metric with its
// unit (-repeat N runs N rounds on seeds seed..seed+N-1, alternating the
// workload order, and prints each metric's median, quartiles and spread):
//
//	ffbench -seed 1
//	ffbench -seed 1 -repeat 5 -ledger results/<commit>.json -commit <commit>
//
// --trace 1 switches to the per-layer metrics: each workload first runs
// untraced as a reference, then again with spans recorded around every
// boundary call (written out with -spans FILE). The exit status is
// non-zero whenever a correctness gate fails.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"fastforward/bench/kit"
)

// runners measure each workload of kit.Workloads.
var runners = map[string]func(env) (outcome, error){
	"serve-4096": func(e env) (outcome, error) { return runServe(e, 4096) },
	"serve-64":   func(e env) (outcome, error) { return runServe(e, 64) },
	"fleet-wire": runFleet,
	"sweep":      runSweep,
}

// env is what every workload receives: the seed its inputs derive from,
// the measuring time, and whether this is the traced run.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	nproc   int
}

// window returns the measuring time scaled by share.
func (e env) window(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// outcome is a workload's measured result plus its spans (traced runs).
type outcome struct {
	res   kit.Result
	spans []kit.Span
}

func main() {
	name := flag.String("workload", "", "run one workload in this process (empty: every workload, one child process each)")
	seed := flag.Int64("seed", 1, "seed every workload input derives from")
	seconds := flag.Float64("seconds", kit.RunSeconds, "measuring time of one workload run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	spans := flag.String("spans", "", "with --trace 1 and --workload: write the recorded spans to this JSON file")
	repeat := flag.Int("repeat", 1, "without --workload: rounds to run, on seeds seed, seed+1, ...")
	ledger := flag.String("ledger", "", "without --workload: append this set of runs to a ledger JSON file")
	commit := flag.String("commit", "", "commit id recorded in the ledger")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "ffbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ffbench: --seconds must be positive")
		os.Exit(2)
	}
	e := env{seed: *seed, seconds: *seconds, traced: *trace == 1, nproc: runtime.NumCPU()}
	if *name != "" {
		os.Exit(runOne(*name, e, *spans))
	}
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "ffbench: -repeat must be at least 1")
		os.Exit(2)
	}
	os.Exit(runAll(e, *repeat, *ledger, *commit))
}

// runOne measures one workload in this process and prints its result as
// the last line of standard output.
func runOne(name string, e env, spansPath string) int {
	run, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ffbench: unknown workload %q\n", name)
		return 2
	}
	fmt.Printf("# ffbench workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		name, e.seed, e.seconds, e.traced, e.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	out, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffbench: %s: %v\n", name, err)
		return 1
	}
	line, err := out.res.Encode(kit.Catalog(e.traced))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffbench: %s: %v\n", name, err)
		return 1
	}
	if spansPath != "" && e.traced {
		if err := kit.WriteSpans(spansPath, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "ffbench: writing spans: %v\n", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !out.res.Correct {
		fmt.Fprintf(os.Stderr, "ffbench: %s: a correctness gate failed\n", name)
		return 1
	}
	return 0
}

// runChild measures one workload in a child process of this binary, so
// each workload's peak RSS and runtime state are its own.
func runChild(name string, e env) (kit.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return kit.Result{}, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(e.seed, 10),
		"--seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "--trace", strconv.Itoa(btoi(e.traced)))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && line[0] == '{' {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		if runErr == nil {
			runErr = fmt.Errorf("no result line")
		}
		return kit.Result{}, fmt.Errorf("%s: %w", name, runErr)
	}
	res, _, err := kit.Decode(last)
	if err != nil {
		return kit.Result{}, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in child processes, rounds times, and
// prints what they measured. It fails if any run fails or is incorrect.
func runAll(e env, rounds int, ledgerPath, commit string) int {
	catalog := kit.Catalog(e.traced)
	runs := make(map[string][]kit.Result)
	var ledgerRuns []ledgerRun
	status := 0
	for r := 0; r < rounds; r++ {
		order := append([]kit.Workload(nil), kit.Workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		re := e
		re.seed = e.seed + int64(r)
		for _, w := range order {
			res, err := runChild(w.Name, re)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ffbench: %v\n", err)
				status = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "ffbench: %s seed %d: correct=%v failed=%d of %d\n",
					w.Name, re.seed, res.Correct, res.Failed, res.Attempted)
				status = 1
			}
			runs[w.Name] = append(runs[w.Name], res)
			ledgerRuns = append(ledgerRuns, ledgerRun{Workload: w.Name, Seed: re.seed, Round: r,
				Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Values})
			if rounds == 1 {
				printRun(w.Name, res, catalog)
			}
		}
	}
	if rounds > 1 && printSpreads(runs, catalog) {
		status = 1
	}
	if ledgerPath != "" {
		if err := appendLedger(ledgerPath, commit, e, ledgerRuns); err != nil {
			fmt.Fprintf(os.Stderr, "ffbench: ledger: %v\n", err)
			status = 1
		}
	}
	return status
}

func printRun(name string, res kit.Result, catalog []kit.Metric) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, m := range catalog {
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, res.Values[m.Name], m.Unit)
	}
}

// printSpreads prints each metric's median, quartiles, extremes and
// quartile spread over the rounds, and reports whether an end-to-end
// metric other than setup_s spread wider than its bound.
func printSpreads(runs map[string][]kit.Result, catalog []kit.Metric) bool {
	wide := false
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return workloadIndex(names[a]) < workloadIndex(names[b]) })
	for _, name := range names {
		fmt.Printf("%s (%d runs)\n", name, len(runs[name]))
		fmt.Printf("  %-30s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
		for _, m := range catalog {
			var xs []float64
			for _, r := range runs[name] {
				xs = append(xs, r.Values[m.Name])
			}
			q1, med, q3 := kit.Quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := kit.Ratio(q3-q1, med)
			flag := ""
			if m.Bound > 0 && spread > m.Bound {
				flag = "  SPREAD>BOUND"
				if m.Name != "setup_s" {
					wide = true
				}
			}
			fmt.Printf("  %-30s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s%s\n", m.Name, med, q1, q3, lo, hi, spread, m.Unit, flag)
		}
	}
	return wide
}

func workloadIndex(name string) int {
	for i, w := range kit.Workloads {
		if w.Name == name {
			return i
		}
	}
	return len(kit.Workloads)
}

// The layer metrics of each workload. A run reports 0 for those of the
// layers it never enters.
var (
	servedLayers = []string{
		"relayd.client_codec_frac", "relayd.client_write_frac", "relayd.server_write_frac",
		"relayd.daemon_other_frac", "relayd.wire_bytes_per_sample", "relayd.throttle_waits",
		"relayd.io_errors", "pipeline.cancel_frac", "pipeline.cfo_remove_frac", "pipeline.cnf_pre_frac",
		"pipeline.cfo_restore_frac", "pipeline.amp_frac", "pipeline.sessions_per_sweep",
		"pipeline.executor_busy_frac", "rt.lat_p50_frac", "rt.lat_p99_frac", "rt.late_frac",
		"loadgen.lag_p99_frac",
	}
	fleetLayers = []string{
		"fleet.admit_frac", "fleet.query_frac", "fleet.release_frac", "fleet.assign_self_frac",
		"fleet.failover_frac", "fleet.gate_admit_frac", "fleet.queries_per_admit",
		"fleet.admits_per_placement", "fleet.refused.session_limit", "fleet.refused.budget",
		"fleet.pool_spawn_frac",
	}
	sweepLayers = []string{
		"floorplan.trace_frac", "floorplan.channel_frac", "relay.amp_frac", "cnf.desired_frac",
		"cnf.synth_frac", "phyrate.rate_frac", "testbed.unattributed_frac", "par.busy_frac",
	}
)

func zero(v map[string]float64, lists ...[]string) {
	for _, l := range lists {
		for _, name := range l {
			v[name] = 0
		}
	}
}
