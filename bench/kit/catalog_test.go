package kit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogMatchesBenchmarkFile is the drift guard between the metrics
// ffbench can print (Result.Encode prints exactly the catalog) and the
// metrics BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if !reflect.DeepEqual(b.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from kit.EndToEnd:\nfile %+v\nkit  %+v", b.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from kit.PerLayer:\nfile %+v\nkit  %+v", b.PerLayer, PerLayer)
	}
	if !reflect.DeepEqual(b.Workloads, Workloads) {
		t.Errorf("workloads in BENCHMARK.json differ from kit.Workloads:\nfile %+v\nkit  %+v", b.Workloads, Workloads)
	}
	if b.RunSeconds != RunSeconds {
		t.Errorf("run_seconds = %d, kit.RunSeconds = %d", b.RunSeconds, RunSeconds)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestEncodeRefusesDrift(t *testing.T) {
	full := map[string]float64{}
	for _, m := range EndToEnd {
		full[m.Name] = 1.5
	}
	line, err := Result{Correct: true, Attempted: 3, Values: full}.Encode(EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	got, units, err := Decode(line)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || !reflect.DeepEqual(got.Values, full) {
		t.Errorf("round trip = %+v", got)
	}
	for _, m := range EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("%s printed with unit %q, want %q", m.Name, units[m.Name], m.Unit)
		}
	}

	missing := map[string]float64{}
	for k, v := range full {
		missing[k] = v
	}
	delete(missing, "setup_s")
	if _, err := (Result{Values: missing}).Encode(EndToEnd); err == nil {
		t.Error("a missing metric was encoded")
	}
	extra := map[string]float64{"unlisted": 1}
	for k, v := range full {
		extra[k] = v
	}
	if _, err := (Result{Values: extra}).Encode(EndToEnd); err == nil {
		t.Error("a metric outside the catalog was encoded")
	}
}
