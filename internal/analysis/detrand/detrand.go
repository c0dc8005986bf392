// Package detrand forbids nondeterminism sources in the sweep pipeline:
// wall-clock reads, the global math/rand stream, and map-iteration order
// feeding order-sensitive results. The parallel sweep engine's
// bit-identical serial-vs-parallel guarantee (internal/par) and the
// byte-identical run manifests (internal/obs) both rest on these being
// impossible, not merely avoided.
//
// Three rules:
//
//  1. Wall clock: calls to time.Now / time.Since / time.Until are
//     forbidden everywhere except explicitly allowlisted packages
//     (cmd/internal/runmeta stamps manifests with real timestamps by
//     design; internal/relayd and cmd/ffrelayd run connection deadlines
//     and backoff) and `//fflint:allow detrand <reason>` sites.
//
//  2. Global rand: package-level math/rand draws (rand.Float64,
//     rand.Intn, rand.Shuffle, ...) read a process-global sequential
//     stream whose order depends on goroutine scheduling. Constructing
//     seeded sources (rand.New, rand.NewSource) stays legal — that is
//     exactly what internal/rng wraps.
//
//  3. Map ranges: a `for ... range m` over a map inside a sweep-path
//     package must not feed an order-sensitive sink — appending to a
//     slice declared outside the loop, accumulating into a float
//     (float addition is not associative), or setting an obs.Gauge
//     (last-write-wins). Writing into another map or integer counters
//     is order-independent and stays legal.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"fastforward/internal/analysis"
)

// Config tunes the analyzer for tests; the zero value is the production
// configuration for this repository.
type Config struct {
	// SweepPackages are import-path suffixes subject to the map-range
	// rule (the packages that compute results and metrics).
	SweepPackages []string
	// WallClock are import-path suffixes where time.Now is legitimate
	// (manifest run metadata).
	WallClock []string
}

var defaultSweep = []string{
	"internal/testbed", "internal/par", "internal/ident", "internal/impair",
	"internal/sic", "internal/cnf", "internal/relay", "internal/obs",
	"internal/pipeline", "internal/fleet",
}

// The relay daemon and its binary are allowlisted for the wall clock:
// connection deadlines, idle eviction, token-bucket sleeps, and reconnect
// backoff are genuinely temporal. The sample path stays deterministic —
// relayd feeds blocks through internal/pipeline, which remains fully
// covered by all three rules.
var defaultWallClock = []string{
	"cmd/internal/runmeta", "internal/relayd", "cmd/ffrelayd",
}

// forbiddenTime are the wall-clock reads; time.Sleep is scheduling, not
// data, and the sweep packages have no business calling it either, so it
// is included.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
}

// allowedRandConstructors may be called anywhere: they build seeded,
// local sources.
var allowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// New returns the detrand analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.SweepPackages == nil {
		cfg.SweepPackages = defaultSweep
	}
	if cfg.WallClock == nil {
		cfg.WallClock = defaultWallClock
	}
	return &analysis.Analyzer{
		Name: "detrand",
		Doc:  "forbid wall-clock reads, the global math/rand stream, and order-sensitive map iteration in sweep-path packages",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

func run(pass *analysis.Pass, cfg Config) {
	wallClockOK := analysis.PathMatches(pass.Pkg.Path(), cfg.WallClock)
	sweep := analysis.PathMatches(pass.Pkg.Path(), cfg.SweepPackages)
	for _, f := range pass.Files {
		var enclosing []ast.Node // stack of function bodies
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					enclosing = append(enclosing, n.Body)
				}
			case *ast.FuncLit:
				enclosing = append(enclosing, n.Body)
			case *ast.Ident:
				checkIdentUse(pass, n, wallClockOK)
			case *ast.RangeStmt:
				if sweep {
					body := innermostContaining(enclosing, n)
					checkMapRange(pass, n, body)
				}
			}
			return true
		})
	}
}

// innermostContaining returns the innermost pushed function body whose
// span contains n (entries are pushed in nesting order and never need
// popping: position containment disambiguates).
func innermostContaining(stack []ast.Node, n ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].Pos() <= n.Pos() && n.End() <= stack[i].End() {
			return stack[i]
		}
	}
	return nil
}

// checkIdentUse flags any use — call or function value — of the
// forbidden time and global-rand functions. Checking uses rather than
// calls closes the `f := time.Now; f()` and `sync.OnceValue(time.Now)`
// escape hatches.
func checkIdentUse(pass *analysis.Pass, id *ast.Ident, wallClockOK bool) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. Time.Sub) are derived data, not clock reads
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] && !wallClockOK {
			pass.Reportf(id.Pos(), "wall-clock call time.%s: sweep results and manifests must be time-independent (move behind the obs timings boundary, or annotate //fflint:allow detrand <reason>)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandConstructors[fn.Name()] {
			pass.Reportf(id.Pos(), "global math/rand draw rand.%s: schedule-dependent shared stream; construct a seeded source (internal/rng) instead", fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive sinks inside a range over a map.
// body is the enclosing function body, used to recognize the
// collect-then-sort idiom.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, body ast.Node) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, body, n)
		case *ast.CallExpr:
			if isGaugeSet(pass, n) {
				pass.Reportf(n.Pos(), "obs.Gauge set inside range over map: last-write-wins under random iteration order; use a Histogram or iterate sorted keys")
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *analysis.Pass, rng *ast.RangeStmt, body ast.Node, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if !declaredOutside(pass, lhs, rng) {
			continue
		}
		// append into an outer slice: iteration order becomes element
		// order — unless the slice is sorted after the loop
		// (collect-keys-then-sort is the deterministic idiom this rule
		// exists to push people toward).
		if i < len(as.Rhs) {
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if !sortedAfter(pass, body, rng, lhs) {
							pass.Reportf(as.Pos(), "append into %s inside range over map: element order follows random map iteration; sort the slice afterwards or iterate sorted keys", analysis.ExprString(lhs))
						}
						continue
					}
				}
			}
		}
		// float accumulation: addition order changes the rounding.
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if tv, ok := pass.TypesInfo.Types[lhs]; ok {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
					pass.Reportf(as.Pos(), "float accumulation into %s inside range over map: float addition is not associative, so the sum depends on iteration order; iterate sorted keys or accumulate in fixed point", analysis.ExprString(lhs))
				}
			}
		}
	}
}

// sortFuncs are the sorting entry points of sort and slices whose first
// argument is the slice being ordered.
var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true,
}

// sortedAfter reports whether, somewhere in the enclosing function body
// after the range loop, the slice written by the loop is passed to a
// sort/slices sorting function. Matching is textual on the expression
// (out, snap.Timings, ...) — crude, but sorting a *different* expression
// that aliases the slice is not an idiom this codebase uses.
func sortedAfter(pass *analysis.Pass, body ast.Node, rng *ast.RangeStmt, target ast.Expr) bool {
	if body == nil {
		return false
	}
	want := analysis.ExprString(target)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		path, name := analysis.PkgFunc(pass, call.Fun)
		if (path != "sort" && path != "slices") || !sortFuncs[name] {
			return true
		}
		if analysis.ExprString(ast.Unparen(call.Args[0])) == want {
			found = true
		}
		return true
	})
	return found
}

// declaredOutside reports whether the object behind expr was declared
// outside the range statement (so writes to it survive the loop).
// Selector targets (fields of outer structs) count as outside.
func declaredOutside(pass *analysis.Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return declaredOutside(pass, e.X, rng)
	}
	return false
}

// isGaugeSet matches (*obs.Gauge).Set calls by method name and receiver
// type, using a package-path suffix so fixtures can stub the obs package.
func isGaugeSet(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn, recv := analysis.Method(pass, call)
	return fn != nil && fn.Name() == "Set" && recv.Obj().Name() == "Gauge" &&
		analysis.PathMatches(recv.Obj().Pkg().Path(), []string{"obs"})
}
