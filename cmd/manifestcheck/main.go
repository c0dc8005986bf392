// Command manifestcheck validates and compares the JSON run manifests
// that ffsim and ffrelayd write via -manifest (see OBSERVABILITY.md for
// the schema).
//
// Usage:
//
//	manifestcheck run.json                     schema-validate one manifest
//	manifestcheck -require sic.analog_db run.json
//	                                           ...and require named metrics
//	                                           to be present and nonzero
//	manifestcheck -diff a.json b.json          compare the deterministic
//	                                           metrics sections bit-exactly
//	manifestcheck -diff -ignore fleet.wire. a.json b.json
//	                                           ...excluding metrics whose
//	                                           names match a prefix
//
// Exit status 0 on success, 1 on any validation or comparison failure,
// 2 on usage errors. The -diff mode deliberately ignores timings,
// wall-clock and argv: those are allowed to differ between runs; the
// metrics section is not (for equal seeds and configs). The -ignore
// flag (comma-separated name prefixes) carves out metric families that
// one side records and the other legitimately cannot — e.g. the
// fleet.wire.* transport counters only exist in served mode.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"fastforward/cmd/internal/runmeta"
	"fastforward/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated metric names that must be present with nonzero observations")
	diff := flag.Bool("diff", false, "compare the metrics sections of two manifests bit-exactly")
	ignore := flag.String("ignore", "", "comma-separated metric-name prefixes to exclude from -diff")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: manifestcheck -diff [-ignore prefix1,prefix2] a.json b.json")
			os.Exit(2)
		}
		a := load(flag.Arg(0))
		b := load(flag.Arg(1))
		prefixes := splitList(*ignore)
		am := dropPrefixed(a.Metrics, prefixes)
		bm := dropPrefixed(b.Metrics, prefixes)
		if !diffMetrics(flag.Arg(0), am, flag.Arg(1), bm) {
			os.Exit(1)
		}
		ignored := (len(a.Metrics) - len(am)) + (len(b.Metrics) - len(bm))
		if ignored > 0 {
			fmt.Printf("metrics identical: %s == %s (%d metrics, %d ignored by prefix)\n",
				flag.Arg(0), flag.Arg(1), len(am), ignored)
		} else {
			fmt.Printf("metrics identical: %s == %s (%d metrics)\n", flag.Arg(0), flag.Arg(1), len(am))
		}
		return
	}
	if *ignore != "" {
		fmt.Fprintln(os.Stderr, "manifestcheck: -ignore only applies to -diff")
		os.Exit(2)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: manifestcheck [-require m1,m2] run.json")
		os.Exit(2)
	}
	m := load(flag.Arg(0))
	errs := validate(m)
	for _, name := range splitList(*require) {
		if err := requireNonzero(m, name); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "%s: %s\n", flag.Arg(0), e)
		}
		os.Exit(1)
	}
	fmt.Printf("ok: %s (%s, %d metrics, %d stages)\n", flag.Arg(0), m.Binary, len(m.Metrics), len(m.Timings))
}

func load(path string) *runmeta.Manifest {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var m runmeta.Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		fmt.Fprintf(os.Stderr, "%s: not a manifest: %v\n", path, err)
		os.Exit(1)
	}
	return &m
}

// validate checks the structural invariants the schema promises.
func validate(m *runmeta.Manifest) []string {
	var errs []string
	if m.Schema != runmeta.SchemaID {
		errs = append(errs, fmt.Sprintf("schema %q, want %q", m.Schema, runmeta.SchemaID))
	}
	if m.Binary == "" {
		errs = append(errs, "missing binary")
	}
	if m.GoVersion == "" {
		errs = append(errs, "missing go_version")
	}
	if len(m.Config) == 0 {
		errs = append(errs, "missing config")
	}
	if m.StartedAt == "" {
		errs = append(errs, "missing started_at")
	}
	for name, ms := range m.Metrics {
		switch ms.Type {
		case "counter":
			if ms.Value == nil {
				errs = append(errs, fmt.Sprintf("metric %s: counter without value", name))
			}
		case "gauge":
			if ms.Value == nil {
				errs = append(errs, fmt.Sprintf("metric %s: gauge without value (unset gauges are omitted from snapshots)", name))
			}
		case "histogram":
			if len(ms.Buckets) == 0 {
				errs = append(errs, fmt.Sprintf("metric %s: histogram without buckets", name))
				continue
			}
			var sum uint64
			prev := -1.0
			for i, b := range ms.Buckets {
				sum += b.Count
				if b.LE == nil {
					if i != len(ms.Buckets)-1 {
						errs = append(errs, fmt.Sprintf("metric %s: overflow bucket not last", name))
					}
					continue
				}
				if i > 0 && *b.LE <= prev {
					errs = append(errs, fmt.Sprintf("metric %s: bucket bounds not increasing", name))
				}
				prev = *b.LE
			}
			if sum != ms.Count {
				errs = append(errs, fmt.Sprintf("metric %s: bucket counts sum to %d, count says %d", name, sum, ms.Count))
			}
		default:
			errs = append(errs, fmt.Sprintf("metric %s: unknown type %q", name, ms.Type))
		}
	}
	return errs
}

// requireNonzero enforces the acceptance-style assertion that a metric
// both exists and recorded something other than zero.
func requireNonzero(m *runmeta.Manifest, name string) error {
	ms, ok := m.Metrics[name]
	if !ok {
		return fmt.Errorf("required metric %s missing", name)
	}
	switch ms.Type {
	case "counter":
		if ms.Value == nil || *ms.Value == 0 {
			return fmt.Errorf("required counter %s is zero", name)
		}
	case "gauge":
		if ms.Value == nil || *ms.Value == 0 {
			return fmt.Errorf("required gauge %s is unset or zero", name)
		}
	case "histogram":
		if ms.Count == 0 {
			return fmt.Errorf("required histogram %s has no observations", name)
		}
		if ms.Sum == nil || *ms.Sum == 0 {
			return fmt.Errorf("required histogram %s sums to zero", name)
		}
	}
	return nil
}

// diffMetrics compares two metrics sections via their canonical JSON
// encodings (bit-exact on every count, sum, min and max) and reports
// per-metric differences. Returns true when identical.
func diffMetrics(an string, a map[string]obs.MetricSnapshot, bn string, b map[string]obs.MetricSnapshot) bool {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	same := true
	for _, k := range sorted {
		av, aok := a[k]
		bv, bok := b[k]
		switch {
		case !aok:
			fmt.Printf("- %s: only in %s\n", k, bn)
			same = false
		case !bok:
			fmt.Printf("- %s: only in %s\n", k, an)
			same = false
		default:
			aj, _ := json.Marshal(av)
			bj, _ := json.Marshal(bv)
			if !bytes.Equal(aj, bj) {
				fmt.Printf("- %s:\n    %s: %s\n    %s: %s\n", k, an, aj, bn, bj)
				same = false
			}
		}
	}
	return same
}

// dropPrefixed returns metrics whose names match none of the prefixes
// (the original map when there is nothing to drop).
func dropPrefixed(m map[string]obs.MetricSnapshot, prefixes []string) map[string]obs.MetricSnapshot {
	if len(prefixes) == 0 {
		return m
	}
	out := make(map[string]obs.MetricSnapshot, len(m))
	for name, ms := range m {
		drop := false
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				drop = true
				break
			}
		}
		if !drop {
			out[name] = ms
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
