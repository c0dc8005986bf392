package obsmetrics_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fastforward/internal/analysis/analysistest"
	"fastforward/internal/analysis/obsmetrics"
)

func TestObsMetrics(t *testing.T) {
	a := obsmetrics.New(obsmetrics.Config{
		RegistryFile:      "METRICS.txt",
		ObservabilityFile: "OBS.md",
		MakefileFile:      "Makefile",
	})
	analysistest.Run(t, "testdata", a, "metricuse_ok", "metricuse_bad", "crossval/obs")
}

// TestStaleFlagsRowWithoutRegistration lays out a fake module whose
// registry keeps the row of a counter whose registration was deleted:
// that row, and only it, is stale. Literal names, literal prefixes,
// test-only registrations and nested modules are all exercised.
func TestStaleFlagsRowWithoutRegistration(t *testing.T) {
	root := t.TempDir()
	for path, content := range map[string]string{
		"go.mod":       "module example.com/m\n",
		"METRICS.txt":  "# comment\npipe.blocks\npipe.gone_blocks\nrelay.amp_bound.noise_rule\ntest.only\nnested.only\n",
		"pipe/pipe.go": "package pipe\n\nfunc New(r R) {\n\tr.Counter(\"pipe.blocks\", \"blocks\")\n\tr.Counter(\"relay.amp_bound.\"+b.String(), \"cells\")\n}\n",
		// Registrations in tests and in nested modules do not count.
		"pipe/pipe_test.go": "package pipe\n\nfunc T(r R) { r.Counter(\"test.only\", \"x\") }\n",
		"bench/go.mod":      "module example.com/bench\n",
		"bench/b.go":        "package b\n\nfunc B(r R) { r.Gauge(\"nested.only\", \"x\") }\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := obsmetrics.Stale(root, filepath.Join(root, "METRICS.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"nested.only", "pipe.gone_blocks", "test.only"}
	if !slices.Equal(stale, want) {
		t.Fatalf("Stale = %v, want %v", stale, want)
	}
}

// TestRepositoryMetricRegistryIsCurrent is the reverse registry guard
// run against the real repository: every name in internal/obs/METRICS.txt
// must still be registered by non-test code.
func TestRepositoryMetricRegistryIsCurrent(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	stale, err := obsmetrics.Stale(root, filepath.Join(root, "internal", "obs", "METRICS.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) > 0 {
		t.Errorf("metric registry names that no non-test code registers (delete their METRICS.txt and OBSERVABILITY.md rows): %v", stale)
	}
}
