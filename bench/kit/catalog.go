// Package kit is ffbench's measurement toolkit: the metric catalog that
// mirrors BENCHMARK.json, order statistics, the span tracer with its
// self-time attribution, timing and byte-counting net.Conn wrappers, the
// open-loop load generator, the CRC gate for served blocks, process
// counters, and the reference kernel that measures the machine's speed.
// It starts no goroutines; the workloads in bench/ffbench drive it.
package kit

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// RunSeconds is how long one workload run measures (run_seconds).
const RunSeconds = 20

// Workload names one workload and why the benchmark has it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads are the benchmark's workloads, in the order ffbench runs them.
var Workloads = []Workload{
	{Name: "serve-4096", Why: "per-sample DSP is most of each served round trip, so stage kernels and per-byte codec or framing changes show here"},
	{Name: "serve-64", Why: "per-frame cost dominates the served round trip, so executor hand-off, syscalls, framing and batching show here and DSP-only changes do not"},
	{Name: "fleet-wire", Why: "fleet admission over relayd's control plane with spills and refusals and no timed DSP"},
	{Name: "sweep", Why: "the figure path (ray trace, channel, CNF, rate mapping) that bypasses relayd and the block pipeline"},
}

// Metric is one reported metric, exactly as BENCHMARK.json names it.
// Bound is set only for end-to-end metrics: the share of the parent's
// median by which the metric may worsen before a change is a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists the metrics every workload prints in an untraced run.
// Each is defined on every workload through the workload's operation: a
// served block round trip (serve-*), a wire admission (fleet-wire), or a
// client evaluation (sweep).
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mem_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// PerLayer lists the metrics every workload prints in a traced run. A
// layer a workload never enters reads 0 there, so every such metric is a
// share, a ratio or a count — never a time; the time-valued ones are
// measured on every workload.
var PerLayer = []Metric{
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "ref.pass_us", Unit: "us", Better: "lower"},

	{Name: "relayd.client_codec_frac", Unit: "frac", Better: "lower"},
	{Name: "relayd.client_write_frac", Unit: "frac", Better: "lower"},
	{Name: "relayd.server_write_frac", Unit: "frac", Better: "lower"},
	{Name: "relayd.daemon_other_frac", Unit: "frac", Better: "lower"},
	{Name: "relayd.wire_bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "relayd.throttle_waits", Unit: "count", Better: "lower"},
	{Name: "relayd.io_errors", Unit: "count", Better: "lower"},
	{Name: "pipeline.cancel_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.cfo_remove_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.cnf_pre_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.cfo_restore_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.amp_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.sessions_per_sweep", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.executor_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "rt.lat_p50_frac", Unit: "ratio", Better: "lower"},
	{Name: "rt.lat_p99_frac", Unit: "ratio", Better: "lower"},
	{Name: "rt.late_frac", Unit: "frac", Better: "lower"},
	{Name: "loadgen.lag_p99_frac", Unit: "ratio", Better: "lower"},

	{Name: "fleet.admit_frac", Unit: "frac", Better: "lower"},
	{Name: "fleet.query_frac", Unit: "frac", Better: "lower"},
	{Name: "fleet.release_frac", Unit: "frac", Better: "lower"},
	{Name: "fleet.assign_self_frac", Unit: "frac", Better: "lower"},
	{Name: "fleet.failover_frac", Unit: "frac", Better: "lower"},
	{Name: "fleet.gate_admit_frac", Unit: "frac", Better: "lower"},
	{Name: "fleet.queries_per_admit", Unit: "ratio", Better: "lower"},
	{Name: "fleet.admits_per_placement", Unit: "ratio", Better: "lower"},
	{Name: "fleet.refused.session_limit", Unit: "count", Better: "lower"},
	{Name: "fleet.refused.budget", Unit: "count", Better: "lower"},
	{Name: "fleet.pool_spawn_frac", Unit: "frac", Better: "lower"},

	{Name: "floorplan.trace_frac", Unit: "frac", Better: "lower"},
	{Name: "floorplan.channel_frac", Unit: "frac", Better: "lower"},
	{Name: "relay.amp_frac", Unit: "frac", Better: "lower"},
	{Name: "cnf.desired_frac", Unit: "frac", Better: "lower"},
	{Name: "cnf.synth_frac", Unit: "frac", Better: "lower"},
	{Name: "phyrate.rate_frac", Unit: "frac", Better: "lower"},
	{Name: "testbed.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "par.busy_frac", Unit: "frac", Better: "higher"},
}

// Catalog returns the metric list a run prints: PerLayer when traced,
// EndToEnd otherwise.
func Catalog(traced bool) []Metric {
	if traced {
		return PerLayer
	}
	return EndToEnd
}

// Result is one workload run as the last line of ffbench's output
// reports it.
type Result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Values    map[string]float64
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// Encode renders the result as one JSON object whose metrics are exactly
// the catalog's, each with its unit. A catalog metric without a value, a
// value outside the catalog, or a non-finite value is an error: the
// printed set cannot drift from BENCHMARK.json.
func (r Result) Encode(catalog []Metric) ([]byte, error) {
	out := jsonResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonValue, len(catalog))}
	for _, m := range catalog {
		v, ok := r.Values[m.Name]
		if !ok {
			return nil, fmt.Errorf("kit: metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("kit: metric %s = %v is not finite", m.Name, v)
		}
		out.Metrics[m.Name] = jsonValue{Value: v, Unit: m.Unit}
	}
	if len(r.Values) != len(catalog) {
		var extra []string
		for name := range r.Values {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("kit: metrics outside the catalog: %v", extra)
	}
	return json.Marshal(out)
}

// Decode parses a line Encode produced.
func Decode(line []byte) (Result, map[string]string, error) {
	var in jsonResult
	if err := json.Unmarshal(line, &in); err != nil {
		return Result{}, nil, err
	}
	r := Result{Correct: in.Correct, Attempted: in.Attempted, Failed: in.Failed,
		Values: make(map[string]float64, len(in.Metrics))}
	units := make(map[string]string, len(in.Metrics))
	for name, v := range in.Metrics {
		r.Values[name] = v.Value
		units[name] = v.Unit
	}
	return r, units, nil
}
