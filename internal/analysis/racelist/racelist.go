// Package racelist guards the Makefile's `race:` target against drift.
// The race detector only sees what the race target runs, and the target
// is a hand-maintained package list — so a new concurrent package (or a
// quiet package growing its first goroutine) silently escapes coverage.
//
// The rule: every package that has tests AND whose sources carry a
// concurrency marker — a `go` statement, a select statement, channel
// types or operations, an import of sync, or a fan-out through
// internal/par — must appear in the race target's recipe. Extra entries
// are fine (a package can be race-tested for its callers' sake, as
// internal/pipeline is); missing ones fail `make check` via
// cmd/racecheck.
//
// The `fuzz-smoke:` target is the same kind of hand-maintained list (go
// accepts one -fuzz target per invocation), so FuzzMissing guards it the
// same way: every top-level func Fuzz* in the module's tests must have a
// recipe line naming it and its package.
package racelist

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"fastforward/internal/analysis"
)

// parImportSuffix marks the in-repo parallel sweep engine: importing it
// means the package fans work out across goroutines.
const parImportSuffix = "internal/par"

// Concurrent walks the module rooted at root and returns, for each
// package directory (module-relative, slash-separated) that both has
// tests and uses concurrency, the list of markers that make it
// concurrent. The walk is analysis.WalkGoFiles.
func Concurrent(root string) (map[string][]string, error) {
	type pkgState struct {
		markers  map[string]bool
		hasTests bool
	}
	pkgs := map[string]*pkgState{}
	err := analysis.WalkGoFiles(root, func(path string) error {
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		st := pkgs[rel]
		if st == nil {
			st = &pkgState{markers: map[string]bool{}}
			pkgs[rel] = st
		}
		if strings.HasSuffix(path, "_test.go") {
			st.hasTests = true
		}
		for _, m := range fileMarkers(path) {
			st.markers[m] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for rel, st := range pkgs {
		if !st.hasTests || len(st.markers) == 0 {
			continue
		}
		ms := make([]string, 0, len(st.markers))
		for m := range st.markers {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		out[rel] = ms
	}
	return out, nil
}

// fileMarkers parses one file and collects its concurrency markers. A
// file that fails to parse contributes none (the build catches it).
func fileMarkers(path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil
	}
	set := map[string]bool{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if p == "sync" {
			set["imports sync"] = true
		}
		if p == parImportSuffix || strings.HasSuffix(p, "/"+parImportSuffix) {
			set["fans out via internal/par"] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			set["spawns goroutines"] = true
		case *ast.SelectStmt:
			set["uses select"] = true
		case *ast.ChanType, *ast.SendStmt:
			set["uses channels"] = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				set["uses channels"] = true
			}
		}
		return true
	})
	var out []string
	for m := range set {
		out = append(out, m)
	}
	return out
}

// pkgTokenRE pulls ./-prefixed package paths out of a recipe line.
var pkgTokenRE = regexp.MustCompile(`\./([A-Za-z0-9_./-]+)`)

// recipe returns the tab-indented recipe lines of the Makefile target
// named target.
func recipe(path, target string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, target+":"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			lines = append(lines, line)
		case in:
			in = false
		}
	}
	return lines, nil
}

// RaceTested parses the Makefile at path and returns the set of
// module-relative package paths named anywhere in the `race:` target's
// recipe lines.
func RaceTested(path string) (map[string]bool, error) {
	lines, err := recipe(path, "race")
	if err != nil {
		return nil, err
	}
	tested := map[string]bool{}
	for _, line := range lines {
		for _, m := range pkgTokenRE.FindAllStringSubmatch(line, -1) {
			tested[strings.TrimSuffix(m[1], "/...")] = true
		}
	}
	if len(tested) == 0 {
		return nil, fmt.Errorf("racelist: no race target with package paths found in %s", path)
	}
	return tested, nil
}

// Missing returns the concurrent, tested packages under root that the
// Makefile's race target does not cover, sorted.
func Missing(root, makefile string) ([]string, map[string][]string, error) {
	concurrent, err := Concurrent(root)
	if err != nil {
		return nil, nil, err
	}
	tested, err := RaceTested(makefile)
	if err != nil {
		return nil, nil, err
	}
	var missing []string
	for pkg := range concurrent {
		if !tested[pkg] {
			missing = append(missing, pkg)
		}
	}
	sort.Strings(missing)
	return missing, concurrent, nil
}

// fuzzFlagRE pulls the target name out of a recipe's -fuzz '^FuzzX$$'.
var fuzzFlagRE = regexp.MustCompile(`-fuzz\s+'?\^?(Fuzz\w*)`)

// fuzzSmoked parses the Makefile at path and returns the fuzz targets the
// `fuzz-smoke:` recipe runs, as "pkg:FuzzName" with pkg the
// module-relative package path of the same line.
func fuzzSmoked(path string) (map[string]bool, error) {
	lines, err := recipe(path, "fuzz-smoke")
	if err != nil {
		return nil, err
	}
	smoked := map[string]bool{}
	for _, line := range lines {
		fz := fuzzFlagRE.FindStringSubmatch(line)
		pkg := pkgTokenRE.FindStringSubmatch(line)
		if fz != nil && pkg != nil {
			smoked[pkg[1]+":"+fz[1]] = true
		}
	}
	if len(smoked) == 0 {
		return nil, fmt.Errorf("racelist: no fuzz-smoke target with -fuzz lines found in %s", path)
	}
	return smoked, nil
}

// fuzzTargets walks the module rooted at root and returns every top-level
// func Fuzz* in its _test.go files, as "pkg:FuzzName" (the walk is
// analysis.WalkGoFiles).
func fuzzTargets(root string) (map[string]bool, error) {
	targets := map[string]bool{}
	err := analysis.WalkGoFiles(root, func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets[filepath.ToSlash(rel)+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	return targets, err
}

// FuzzMissing returns the fuzz targets under root that the Makefile's
// fuzz-smoke recipe does not run, sorted.
func FuzzMissing(root, makefile string) ([]string, error) {
	targets, err := fuzzTargets(root)
	if err != nil {
		return nil, err
	}
	smoked, err := fuzzSmoked(makefile)
	if err != nil {
		return nil, err
	}
	var missing []string
	for t := range targets {
		if !smoked[t] {
			missing = append(missing, t)
		}
	}
	sort.Strings(missing)
	return missing, nil
}
