package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastforward/internal/analysis"
)

// The suppression contract: a trailing `//fflint:allow <name> <reason>`
// suppresses its own line; a standalone allow comment suppresses the
// line below; an allow without a reason suppresses nothing; an allow for
// a different analyzer suppresses nothing; a trailing allow never leaks
// onto the next line.
const suppressionSrc = `package p

func a() {}
func b() {} //fflint:allow testcheck documented reason
//fflint:allow testcheck standalone comment above
func c() {}
func d() {} //fflint:allow testcheck
func e() {} //fflint:allow othercheck documented reason
func f() {} //fflint:allow testcheck trailing allow must not leak down
func g() {}
`

func TestSuppression(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(suppressionSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	reportFuncs := &analysis.Analyzer{
		Name: "testcheck",
		Doc:  "reports every function declaration by name",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok {
						pass.Reportf(fn.Pos(), "%s", fn.Name.Name)
					}
				}
			}
			return nil
		},
	}
	diags, used, err := analysis.RunAnalyzers(analysis.Pass{
		Fset:      fset,
		Files:     []*ast.File{file},
		Pkg:       types.NewPackage("p", "p"),
		TypesInfo: &types.Info{},
	}, []*analysis.Analyzer{reportFuncs})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{"a", "d", "e", "g"}
	if len(got) != len(want) {
		t.Fatalf("surviving diagnostics = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("surviving diagnostics = %v, want %v", got, want)
		}
	}

	// The three effective allows (trailing on b, standalone above c,
	// trailing on f) must be reported as used; the reasonless allow on d
	// and the mismatched one on e must not.
	wantUsed := []analysis.AllowUse{
		{File: path, Line: 4, Analyzer: "testcheck"},
		{File: path, Line: 5, Analyzer: "testcheck"},
		{File: path, Line: 9, Analyzer: "testcheck"},
	}
	if len(used) != len(wantUsed) {
		t.Fatalf("used allows = %+v, want %+v", used, wantUsed)
	}
	for i := range wantUsed {
		if used[i] != wantUsed[i] {
			t.Fatalf("used allows = %+v, want %+v", used, wantUsed)
		}
	}
}

// The directive grammar: standalone and trailing allows parse with their
// reasons; a marker with no reason, and an empty name in the analyzer
// list, are malformed-allow diagnostics; prose that mentions the marker
// mid-comment is not a directive.
const collectSrc = `package p

// The syntax is //fflint:allow <analyzer> <reason> (prose, not a directive).
func a() {} //fflint:allow testcheck,othercheck shared justification
//fflint:allow testcheck standalone reason
func b() {}
func c() {} //fflint:allow testcheck
//fflint:allow ,testcheck empty first name
func d() {}
`

func TestCollectAllows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(collectSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows, malformed := analysis.CollectAllows(fset, []*ast.File{file})

	if len(allows) != 2 {
		t.Fatalf("allows = %+v, want 2 entries", allows)
	}
	if allows[0].Line != 4 || len(allows[0].Analyzers) != 2 || allows[0].Analyzers[1] != "othercheck" {
		t.Errorf("first allow = %+v, want line 4 naming testcheck,othercheck", allows[0])
	}
	if allows[0].Reason != "shared justification" {
		t.Errorf("first allow reason = %q, want %q", allows[0].Reason, "shared justification")
	}
	if allows[1].Line != 5 || allows[1].Reason != "standalone reason" {
		t.Errorf("second allow = %+v, want line 5 with standalone reason", allows[1])
	}

	if len(malformed) != 2 {
		t.Fatalf("malformed = %+v, want 2 diagnostics", malformed)
	}
	if malformed[0].Pos.Line != 7 || !strings.Contains(malformed[0].Message, "non-empty reason") {
		t.Errorf("first malformed = %+v, want reasonless-allow diagnostic on line 7", malformed[0])
	}
	if malformed[1].Pos.Line != 8 || !strings.Contains(malformed[1].Message, "empty analyzer name") {
		t.Errorf("second malformed = %+v, want empty-name diagnostic on line 8", malformed[1])
	}
}

func TestPathMatches(t *testing.T) {
	suffixes := []string{"internal/pipeline", "relayd"}
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"internal/pipeline", true},
		{"fastforward/internal/pipeline", true},
		{"relayd", true},
		{"fastforward/internal/relayd", true},
		{"fastforward/internal/xpipeline", false},
		{"fastforward/internal/pipeline/sub", false},
		{"fastforward/cmd/ffrelayd", false},
	} {
		if got := analysis.PathMatches(tc.path, suffixes); got != tc.want {
			t.Errorf("PathMatches(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
	if analysis.PathMatches("relayd", nil) {
		t.Error("PathMatches with no suffixes matched")
	}
}

func TestExprString(t *testing.T) {
	for src, want := range map[string]string{
		"x":             "x",
		"(s.mu)":        "s.mu",
		"s.conns[i].br": "s.conns[...].br",
		"c.conn(a, b)":  "c.conn()",
		"gainDB + p":    "gainDB + p",
		"*p":            "*p",
		"x.(net.Conn)":  "x.(net.Conn)",
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := analysis.ExprString(e); got != want {
			t.Errorf("ExprString(%s) = %q, want %q", src, got, want)
		}
	}
}
