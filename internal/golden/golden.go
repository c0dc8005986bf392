// Package golden is the regression harness for seed-fixed scalar outputs:
// a test computes a flat map of named float64 results, and Check diffs it
// against a committed testdata vector: bit for bit on amd64, within 1e-9
// where the compiler may fuse multiply-adds. Any intentional behavior
// change is re-baselined with
//
//	go test ./<pkg>/ -run <Test> -update
//
// which rewrites the golden file from the current values. JSON storage
// uses Go's shortest round-trip float encoding, so baselines are exact and
// diffs in review show the full drift.
package golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current values")

// exact makes Check compare Float64bits. The Go spec lets a compiler fuse
// x*y + z into one rounding (an FMA), and gc does on arm64, ppc64le,
// s390x, riscv64 and others, so there a result may legitimately differ
// in its last bits from the vectors, which are recorded on amd64. On
// amd64 gc fuses nothing but explicit math.FMA calls, so every operation
// rounds as it did when the vector was recorded.
const exact = runtime.GOARCH == "amd64"

// Tolerance is the absolute diff beyond which a value is a regression
// when exact is false.
const Tolerance = 1e-9

// Check compares got against the golden file at path (conventionally
// testdata/<name>.json relative to the calling package). With -update it
// rewrites the file instead and passes.
func Check(t *testing.T, path string, got map[string]float64) {
	t.Helper()
	for k, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("golden value %q = %v: only finite values can be baselined", k, v)
		}
	}
	if *update {
		if err := write(path, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: rewrote %s with %d values", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file %s unreadable (baseline with -update): %v", path, err)
	}
	var want map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden file %s corrupt: %v", path, err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("golden key %q no longer produced", k)
			continue
		}
		w := want[k]
		if math.Float64bits(g) == math.Float64bits(w) {
			continue
		}
		if d := math.Abs(g - w); exact || d > Tolerance {
			t.Errorf("golden %q: got %.17g, want %.17g (%d ulp, |diff| %.3g)",
				k, g, w, ulps(g, w), d)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("new value %q not in golden file (re-baseline with -update)", k)
		}
	}
}

// ulps returns how many float64 steps apart a and b are: 0 when they are
// equal (+0 and −0 included), 1 for neighbours.
func ulps(a, b float64) uint64 {
	ia, ib := ordered(a), ordered(b)
	if ia < ib {
		ia, ib = ib, ia
	}
	return uint64(ia) - uint64(ib)
}

// ordered maps a float64 onto an int64 line that preserves its order and
// puts adjacent floats one apart.
func ordered(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		return math.MinInt64 - b
	}
	return b
}

func write(path string, vals map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(vals, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Key builds a dotted metric-style key from parts, the naming convention
// golden vectors share with the run manifest.
func Key(parts ...interface{}) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "."
		}
		s += fmt.Sprint(p)
	}
	return s
}
