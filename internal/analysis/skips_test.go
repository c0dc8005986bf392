package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"fastforward/internal/analysis"
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

// unguardedSkips returns, as "file:line" relative to root, every Skip,
// Skipf or SkipNow call in the module's _test.go files that is neither a
// statement directly in the body of an `if testing.Short()` nor inside the
// callback of an f.Fuzz call. The suite is deterministic, so a skip that
// depends on anything else either always fires or never does: a check
// that always skips tests nothing, and one that never skips should fail
// instead.
func unguardedSkips(root string) ([]string, error) {
	var out []string
	err := analysis.WalkGoFiles(root, func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if isSkip(n) && !skipGuarded(stack) {
				out = append(out, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(n.Pos()).Line))
			}
			return true
		})
		return nil
	})
	sort.Strings(out)
	return out, err
}

// isSkip reports whether n is a call of a method named Skip, Skipf or
// SkipNow.
func isSkip(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Skip" || sel.Sel.Name == "Skipf" || sel.Sel.Name == "SkipNow")
}

// skipGuarded reports whether the skip call at the top of stack (its
// ancestors below it) is an allowed one.
func skipGuarded(stack []ast.Node) bool {
	if k := len(stack); k >= 4 {
		stmt, _ := stack[k-2].(*ast.ExprStmt)
		block, _ := stack[k-3].(*ast.BlockStmt)
		ifStmt, _ := stack[k-4].(*ast.IfStmt)
		if stmt != nil && block != nil && ifStmt != nil && ifStmt.Body == block && isTestingShort(ifStmt.Cond) {
			return true
		}
	}
	for k := len(stack) - 2; k >= 1; k-- {
		lit, ok := stack[k].(*ast.FuncLit)
		if !ok {
			continue
		}
		if call, ok := stack[k-1].(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Fuzz" && slices.Contains(call.Args, ast.Expr(lit)) {
				return true
			}
		}
	}
	return false
}

// isTestingShort reports whether e is the call testing.Short().
func isTestingShort(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "Short"
}

func TestUnguardedSkipsFlagsDataSkips(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/a/a_test.go": `package a

import "testing"

func TestShort(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
}

func TestData(t *testing.T) {
	if len(data) == 0 {
		t.Skip("no data")
	}
}

func TestNested(t *testing.T) {
	if testing.Short() {
		if ready {
			t.Skipf("%v", ready)
		}
	}
}

func TestElse(t *testing.T) {
	if testing.Short() {
	} else {
		t.SkipNow()
	}
}

func TestNegated(t *testing.T) {
	if !testing.Short() {
		t.Skip()
	}
}

func FuzzX(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int) {
		if n < 0 {
			t.Skip()
		}
	})
}

func FuzzY(f *testing.F) {
	f.Skip()
}
`,
		// Not a test file, a fixture tree, and a nested module: never scanned.
		"internal/a/a.go":                 "package a\n\nfunc F(t T) { t.Skip() }\n",
		"internal/a/testdata/x/x_test.go": "package x\n\nfunc TestX(t *T) { t.Skip() }\n",
		"bench/go.mod":                    "module example.com/bench\n",
		"bench/k/k_test.go":               "package k\n\nfunc TestK(t *T) { t.Skip() }\n",
	})
	got, err := unguardedSkips(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a/a_test.go:13", "internal/a/a_test.go:20", "internal/a/a_test.go:28", "internal/a/a_test.go:34", "internal/a/a_test.go:47"}
	if !slices.Equal(got, want) {
		t.Fatalf("unguarded skips = %v, want %v", got, want)
	}
}

// TestRepositorySkipsAreGuarded is the guard run against the real
// repository: a test skips only in -short mode or on a fuzz input it
// rejects.
func TestRepositorySkipsAreGuarded(t *testing.T) {
	got, err := unguardedSkips(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Errorf("skips outside `if testing.Short()` or an f.Fuzz callback: %v", got)
	}
}
