// Package analysis is a minimal, dependency-free core for the fflint
// static-analysis suite. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, the
// analysistest fixture layout) so the domain analyzers can migrate onto
// the real framework by swapping import paths once the module is allowed
// a dependency on x/tools — this repository builds fully offline, so the
// framework is vendored in spirit rather than in go.mod (see DESIGN.md
// §7).
//
// The suppression mechanism is the one x/tools lacks and domain lint
// needs: a `//fflint:allow <analyzer> <reason>` comment on the flagged
// line (or the line above it) suppresses that analyzer's diagnostics for
// the line. The reason text is mandatory — an allowlist entry without a
// written justification is itself a finding.
package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name used in diagnostics and
// allowlist comments, documentation, and the Run function applied to each
// package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is the unit of work handed to an Analyzer: one type-checked
// package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ModuleDir is the filesystem root of the module under analysis (the
	// directory holding go.mod). Analyzers that consult checked-in
	// registries (obsmetrics) resolve them against this. Empty in fixture
	// runs unless the harness sets it.
	ModuleDir string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional
// file:line:col: analyzer: message compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// AllowUse identifies one fflint:allow comment that suppressed at least
// one diagnostic during a RunAnalyzers call: the file and line the
// comment lives on, and the analyzer it suppressed. The driver compares
// these against CollectAllows to find stale allows.
type AllowUse struct {
	File     string
	Line     int
	Analyzer string
}

// RunAnalyzers applies each analyzer to the package described by the pass
// template and returns the findings sorted by position, with allowlisted
// lines removed. The second result lists the allow comments that earned
// their keep by suppressing something. The caller fills every Pass field
// except Analyzer and the diagnostic sink.
func RunAnalyzers(base Pass, analyzers []*Analyzer) ([]Diagnostic, []AllowUse, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := base
		pass.Analyzer = a
		pass.diags = &diags
		if err := a.Run(&pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %v", base.Pkg.Path(), a.Name, err)
		}
	}
	diags, used := filterSuppressed(diags)
	SortDiagnostics(diags)
	return diags, used, nil
}

// PathMatches reports whether the import path equals one of suffixes or
// ends in "/" plus one of them, so a suffix matches whole path elements:
// "internal/pipeline" matches "fastforward/internal/pipeline" but not
// "fastforward/internal/xpipeline". Analyzers scope themselves to
// packages with it.
func PathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// PkgFunc resolves a call target to (package path, func name) when fun
// names a package-level function: through a selector, a dot-import
// ident, parentheses or a generic instantiation such as par.Map[T]. It
// returns "", "" for methods, builtins, function values and anything
// else.
func PkgFunc(pass *Pass, fun ast.Expr) (string, string) {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.Ident:
		id = f
	case *ast.IndexExpr:
		return PkgFunc(pass, f.X)
	case *ast.IndexListExpr:
		return PkgFunc(pass, f.X)
	default:
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// ExprString names an expression in a diagnostic, and keys it where an
// analyzer tracks state per expression: parentheses dropped, identifiers
// and selector chains verbatim, a call as its function plus "()", an
// index as its operand plus "[...]", a binary expression with its
// operator, and anything else as its source text.
func ExprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return ExprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.BinaryExpr:
		return ExprString(e.X) + " " + e.Op.String() + " " + ExprString(e.Y)
	default:
		return types.ExprString(e)
	}
}

// SortDiagnostics orders diags by file, line, column, then message.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// allowRE matches `//fflint:allow <analyzer> <reason>`; the reason is
// required so every allowlist entry documents why the site is legitimate.
var allowRE = regexp.MustCompile(`//fflint:allow\s+([a-z,]+)\s+\S`)

// filterSuppressed drops diagnostics whose line (or the line above)
// carries a matching fflint:allow comment, and records which allow
// comment (by file and line) did the suppressing.
func filterSuppressed(diags []Diagnostic) ([]Diagnostic, []AllowUse) {
	lines := map[string][]string{} // filename -> lines
	seen := map[AllowUse]bool{}
	var used []AllowUse
	out := diags[:0]
	for _, d := range diags {
		ls, ok := lines[d.Pos.Filename]
		if !ok {
			ls = readLines(d.Pos.Filename)
			lines[d.Pos.Filename] = ls
		}
		allowLine := 0
		switch {
		case lineAllows(ls, d.Pos.Line, d.Analyzer, false):
			allowLine = d.Pos.Line
		case lineAllows(ls, d.Pos.Line-1, d.Analyzer, true):
			allowLine = d.Pos.Line - 1
		}
		if allowLine > 0 {
			u := AllowUse{File: d.Pos.Filename, Line: allowLine, Analyzer: d.Analyzer}
			if !seen[u] {
				seen[u] = true
				used = append(used, u)
			}
			continue
		}
		out = append(out, d)
	}
	return out, used
}

// lineAllows reports whether 1-based line n of ls allowlists analyzer
// name. With commentOnly (the line-above case), only a pure comment line
// counts, so an allow comment trailing statement N never leaks onto
// statement N+1.
func lineAllows(ls []string, n int, name string, commentOnly bool) bool {
	if n < 1 || n > len(ls) {
		return false
	}
	line := ls[n-1]
	if commentOnly && !strings.HasPrefix(strings.TrimSpace(line), "//") {
		return false
	}
	m := allowRE.FindStringSubmatch(line)
	if m == nil {
		return false
	}
	for _, an := range strings.Split(m[1], ",") {
		if an == name {
			return true
		}
	}
	return false
}

// Allow is one parsed fflint:allow directive comment: the file and line
// it lives on, the analyzers it names, and the written reason.
type Allow struct {
	File      string
	Line      int
	Analyzers []string
	Reason    string
}

// AuditName is the analyzer name under which allow-audit findings
// (malformed, unknown-analyzer, and stale allows) are reported. It is not
// itself suppressible — an allow comment cannot excuse its own rot.
const AuditName = "allowaudit"

// strictAllowRE is the full directive grammar: the marker, a comma-
// separated analyzer list, and a non-empty reason.
var strictAllowRE = regexp.MustCompile(`^//fflint:allow\s+([A-Za-z0-9_,-]+)\s+\S`)

// CollectAllows parses every fflint:allow directive in files. A comment
// whose text begins with the `//fflint:allow` marker but does not parse —
// missing reason, empty or malformed analyzer list — is returned as a
// diagnostic rather than silently ignored, so a typo cannot masquerade as
// a suppression. Prose that merely mentions the marker mid-comment (docs,
// examples) is not a directive and is skipped.
func CollectAllows(fset *token.FileSet, files []*ast.File) ([]Allow, []Diagnostic) {
	var allows []Allow
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//fflint:allow") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := strictAllowRE.FindStringSubmatch(c.Text)
				if m == nil {
					malformed = append(malformed, Diagnostic{
						Analyzer: AuditName,
						Pos:      pos,
						Message:  "malformed fflint:allow: want `//fflint:allow <analyzer>[,<analyzer>] <reason>` with a non-empty reason",
					})
					continue
				}
				names := strings.Split(m[1], ",")
				bad := false
				for _, n := range names {
					if n == "" {
						bad = true
					}
				}
				if bad {
					malformed = append(malformed, Diagnostic{
						Analyzer: AuditName,
						Pos:      pos,
						Message:  "malformed fflint:allow: empty analyzer name in list",
					})
					continue
				}
				reason := strings.TrimSpace(c.Text[len(m[0])-1:])
				allows = append(allows, Allow{
					File:      pos.Filename,
					Line:      pos.Line,
					Analyzers: names,
					Reason:    reason,
				})
			}
		}
	}
	return allows, malformed
}

func readLines(filename string) []string {
	f, err := os.Open(filename)
	if err != nil {
		return nil
	}
	defer f.Close()
	var ls []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ls = append(ls, sc.Text())
	}
	return ls
}

// WalkGoFiles calls fn for every .go file of the module rooted at root.
// Directories named testdata or vendor, hidden directories and nested
// modules (directories with their own go.mod) are skipped: the root
// module's go test never builds them.
func WalkGoFiles(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			if strings.HasSuffix(path, ".go") {
				return fn(path)
			}
			return nil
		}
		if path == root {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir
		}
		return nil
	})
}
