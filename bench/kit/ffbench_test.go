package kit

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestFFBenchPrintsEveryMetric builds ffbench and runs every workload of
// BENCHMARK.json briefly, untraced and traced: each run must pass its
// correctness gates and print, as its last line, exactly the file's
// metrics for that mode, each with the file's unit.
func TestFFBenchPrintsEveryMetric(t *testing.T) {
	seconds := 4.0
	if testing.Short() {
		seconds = 1
	}
	b := readBenchmarkFile(t)
	bin := filepath.Join(t.TempDir(), "ffbench")
	build := exec.Command("go", "build", "-o", bin, "../ffbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range b.Workloads {
		for trace, want := range [][]Metric{b.EndToEnd, b.PerLayer} {
			cmd := exec.Command(bin, "--workload", w.Name, "--seed", "5",
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Errorf("%s trace=%d: %v\n%s", w.Name, trace, err, stderr.String())
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			res, units, err := Decode(lines[len(lines)-1])
			if err != nil {
				t.Errorf("%s trace=%d: last line: %v", w.Name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(units) != len(want) {
				t.Errorf("%s trace=%d: printed %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(units), len(want))
			}
			for _, m := range want {
				if u, ok := units[m.Name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%d: %s printed with unit %q (present %v), want %q", w.Name, trace, m.Name, u, ok, m.Unit)
				}
			}
		}
	}
}
