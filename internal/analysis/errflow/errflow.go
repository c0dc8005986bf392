// Package errflow forbids dropped error returns on the service paths:
// protocol encode/decode, admission, and the status endpoint. In the
// configured packages, a call whose results include an error must not be
// discarded — not as a bare expression statement, not behind a blank
// assignment, and not behind a `go` statement (a goroutine's error
// vanishes with it).
//
// Two idioms stay legal: `defer ...` statements (the defer-Close shape,
// where the error genuinely has nowhere to go), and calls to methods
// named Close or to anything in package fmt (Printf to a terminal is not
// a service path). Sites where dropping is the documented contract carry
// `//fflint:allow errflow <reason>`.
package errflow

import (
	"go/ast"
	"go/types"

	"fastforward/internal/analysis"
)

// Config tunes the analyzer for tests; the zero value is the production
// configuration for this repository.
type Config struct {
	// Packages are import-path suffixes subject to the rule (the wire
	// protocol, admission, and status surfaces).
	Packages []string
}

var defaultPackages = []string{
	"internal/relayd", "internal/fleet", "internal/relay", "cmd/ffrelayd",
}

// New returns the errflow analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.Packages == nil {
		cfg.Packages = defaultPackages
	}
	return &analysis.Analyzer{
		Name: "errflow",
		Doc:  "no dropped error returns on protocol, admission, and status paths",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

func run(pass *analysis.Pass, cfg Config) {
	if !analysis.PathMatches(pass.Pkg.Path(), cfg.Packages) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false // defer-Close idiom: the error has nowhere to go
			case *ast.GoStmt:
				if idx := errorResults(pass, n.Call); len(idx) > 0 && !excluded(pass, n.Call) {
					pass.Reportf(n.Pos(), "error from %s dropped by go statement: a goroutine's error vanishes with it — wrap it and report the error", calleeName(n.Call))
				}
				return true
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if idx := errorResults(pass, call); len(idx) > 0 && !excluded(pass, call) {
					pass.Reportf(call.Pos(), "error from %s dropped: handle it, count it, or annotate //fflint:allow errflow <reason>", calleeName(call))
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
}

// checkAssign flags blank-discarded error results in `x, _ := f()` and
// `_ = f()` forms (single call on the right-hand side).
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || excluded(pass, call) {
		return
	}
	idx := errorResults(pass, call)
	for _, i := range idx {
		if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
			pass.Reportf(as.Pos(), "error from %s discarded into _: handle it, count it, or annotate //fflint:allow errflow <reason>", calleeName(call))
			return
		}
	}
}

// errorResults returns the result indexes of call that have type error.
func errorResults(pass *analysis.Pass, call *ast.CallExpr) []int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var idx []int
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				idx = append(idx, i)
			}
		}
		return idx
	default:
		if types.Identical(tv.Type, errType) {
			return []int{0}
		}
	}
	return nil
}

// excluded reports callees whose dropped error is idiomatic: methods
// named Close and anything from package fmt.
func excluded(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	if fn.Name() == "Close" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return analysis.ExprString(fun.X) + "." + fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
