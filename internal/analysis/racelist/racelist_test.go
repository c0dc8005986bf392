package racelist_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fastforward/internal/analysis/racelist"
)

// writeTree lays out a fake module: paths map to file contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const makefileCoveringOther = `build:
	go build ./...

race:
	go test -race ./internal/other
	go test -race -short ./internal/also
	go test -race -run 'Parallel|Slot' ./internal/filtered

check: race
`

func TestMissingFlagsUncoveredConcurrentPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile": makefileCoveringOther,
		// Concurrent (go statement) with tests: must be race-listed.
		"internal/foo/foo.go":      "package foo\n\nfunc F() { go func() {}() }\n",
		"internal/foo/foo_test.go": "package foo\n",
		// Pure in every way: never flagged.
		"internal/quiet/quiet.go":      "package quiet\n\nfunc Q() int { return 1 }\n",
		"internal/quiet/quiet_test.go": "package quiet\n",
		// Concurrent but untested: the race detector has nothing to run.
		"internal/notests/notests.go": "package notests\n\nimport \"sync\"\n\nvar m sync.Mutex\n",
		// Concurrent via par import, with tests, covered by the -short line.
		"internal/also/also.go":      "package also\n\nimport \"example.com/m/internal/par\"\n\nvar _ = par.X\n",
		"internal/also/also_test.go": "package also\n",
		// Fixture trees under testdata never count.
		"internal/foo/testdata/src/bad/bad.go": "package bad\n\nfunc B() { go func() {}() }\n",
	})
	missing, concurrent, err := racelist.Missing(root, filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != "internal/foo" {
		t.Fatalf("missing = %v, want [internal/foo]", missing)
	}
	if _, ok := concurrent["internal/quiet"]; ok {
		t.Error("quiet package reported as concurrent")
	}
	if _, ok := concurrent["internal/notests"]; ok {
		t.Error("untested package reported: nothing for the race detector to run")
	}
	if _, ok := concurrent["internal/also"]; !ok {
		t.Error("par-importing package not reported as concurrent")
	}
}

func TestRaceTestedParsesRecipeVariants(t *testing.T) {
	root := writeTree(t, map[string]string{"Makefile": makefileCoveringOther})
	tested, err := racelist.RaceTested(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"internal/other", "internal/also", "internal/filtered"} {
		if !tested[want] {
			t.Errorf("race target should cover %s; got %v", want, tested)
		}
	}
	if tested["..."] || len(tested) != 3 {
		t.Errorf("unexpected entries in %v", tested)
	}
}

func TestRaceTestedRejectsMakefileWithoutRaceTarget(t *testing.T) {
	root := writeTree(t, map[string]string{"Makefile": "build:\n\tgo build ./...\n"})
	if _, err := racelist.RaceTested(filepath.Join(root, "Makefile")); err == nil {
		t.Fatal("expected an error for a Makefile with no race target")
	}
}

// TestRepositoryRaceListIsCurrent is the drift guard run against the
// real repository: every concurrent package must be race-listed.
func TestRepositoryRaceListIsCurrent(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	missing, _, err := racelist.Missing(root, filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("concurrent packages missing from the Makefile race target: %v", missing)
	}
}

func TestFuzzMissingFlagsUnsmokedTarget(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile": "fuzz-smoke:\n" +
			"\t$(GO) test -run '^$$' -fuzz '^FuzzA$$' -fuzztime $(FUZZTIME) ./internal/a\n" +
			"\t$(GO) test -run '^$$' -fuzz '^FuzzB$$' -fuzztime $(FUZZTIME) ./internal/a\n" +
			"\n# -fuzz '^FuzzC$$' ./internal/b in a comment runs nothing\n",
		"internal/a/a_test.go": "package a\n\nfunc FuzzA(f *F) {}\nfunc FuzzB(f *F) {}\nfunc (x T) FuzzMethod() {}\n",
		// Same name, other package: the recipe line names the package too.
		"internal/b/b_test.go": "package b\n\nfunc FuzzA(f *F) {}\nfunc FuzzC(f *F) {}\n",
		// Not a test file, a fixture tree, and a nested module: never counted.
		"internal/b/b.go":                 "package b\n\nfunc FuzzLike() {}\n",
		"internal/b/testdata/x/x_test.go": "package x\n\nfunc FuzzX(f *F) {}\n",
		"bench/go.mod":                    "module example.com/bench\n",
		"bench/k/k_test.go":               "package k\n\nfunc FuzzK(f *F) {}\n",
	})
	missing, err := racelist.FuzzMissing(root, filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/b:FuzzA", "internal/b:FuzzC"}; !slices.Equal(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
}

// TestRepositoryFuzzListIsCurrent is the drift guard for the Makefile's
// fuzz-smoke target: it must run every fuzz target in the module.
func TestRepositoryFuzzListIsCurrent(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	missing, err := racelist.FuzzMissing(root, filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("fuzz targets missing from the Makefile fuzz-smoke recipe: %v", missing)
	}
}
