// Package seedflow enforces rule 1 of the internal/par contract: every
// random source constructed inside a parallel work-item body must be
// seeded from rng.ItemSeed(base, i), the location-derived mixer that
// makes each item's stream independent of execution order. A source
// seeded any other way inside a par.ForEach / par.Map / par.FlatMap
// closure — from a raw loop index, a constant, or by Fork()ing a source
// shared across items — reintroduces schedule-dependent randomness that
// the serial-vs-parallel determinism tests then catch only probabilistically.
package seedflow

import (
	"go/ast"
	"go/types"

	"fastforward/internal/analysis"
)

// parSuffixes / rngSuffixes are import-path suffixes identifying the
// parallel-execution and rng packages.
var (
	parSuffixes = []string{"par"}
	rngSuffixes = []string{"rng"}
)

// parEntryPoints are the fan-out functions whose closure arguments are
// work-item bodies.
var parEntryPoints = map[string]bool{"ForEach": true, "Map": true, "FlatMap": true}

// Default returns the seedflow analyzer.
func Default() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "seedflow",
		Doc:  "require rngs constructed inside par work-item bodies to be seeded via rng.ItemSeed",
		Run: func(pass *analysis.Pass) error {
			run(pass)
			return nil
		},
	}
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPkgFunc(pass, call.Fun, parSuffixes, parEntryPoints) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkWorkBody(pass, lit)
				}
			}
			return true
		})
	}
}

// checkWorkBody inspects one work-item closure.
func checkWorkBody(pass *analysis.Pass, lit *ast.FuncLit) {
	tainted := itemSeedTainted(pass, lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Source constructors whose seed argument must derive from
		// ItemSeed: rng.New(seed) and math/rand's NewSource(seed).
		if isRngConstructor(pass, call) && len(call.Args) > 0 {
			if !exprTainted(pass, call.Args[0], tainted) {
				pass.Reportf(call.Pos(), "rng constructed inside a par work-item body with a seed not derived from rng.ItemSeed: results become schedule-dependent (seed with rng.ItemSeed(base, i))")
			}
		}
		// Fork() on a source shared across items draws from one
		// sequential stream in work-item order.
		if recv, ok := forkReceiver(pass, call); ok {
			if declaredOutside(pass, recv, lit) {
				pass.Reportf(call.Pos(), "Fork of a source declared outside the par work-item body: forks consume a shared sequential stream in schedule order; construct rng.New(rng.ItemSeed(base, i)) instead")
			}
		}
		return true
	})
}

// itemSeedTainted computes the set of objects inside lit that
// (transitively) hold a value derived from rng.ItemSeed.
func itemSeedTainted(pass *analysis.Pass, lit *ast.FuncLit) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					if taintIdent(pass, id, n.Rhs[i], tainted) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, id := range n.Names {
					if taintIdent(pass, id, n.Values[i], tainted) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// taintIdent marks id tainted when rhs is; reports whether the set grew.
func taintIdent(pass *analysis.Pass, id *ast.Ident, rhs ast.Expr, tainted map[types.Object]bool) bool {
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil || tainted[obj] {
		return false
	}
	if exprTainted(pass, rhs, tainted) {
		tainted[obj] = true
		return true
	}
	return false
}

// exprTainted reports whether expr contains a call to rng.ItemSeed or a
// use of an already-tainted object.
func exprTainted(pass *analysis.Pass, expr ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPkgFunc(pass, n.Fun, rngSuffixes, map[string]bool{"ItemSeed": true}) {
				found = true
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isRngConstructor matches rng.New(seed) (the repo's Source constructor)
// and math/rand NewSource(seed).
func isRngConstructor(pass *analysis.Pass, call *ast.CallExpr) bool {
	if isPkgFunc(pass, call.Fun, rngSuffixes, map[string]bool{"New": true}) {
		return true
	}
	path, name := analysis.PkgFunc(pass, call.Fun)
	return (path == "math/rand" || path == "math/rand/v2") && (name == "NewSource" || name == "NewPCG" || name == "NewChaCha8")
}

// forkReceiver matches (rng.Source).Fork() calls and returns the receiver
// expression.
func forkReceiver(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	fn, recv := analysis.Method(pass, call)
	if fn == nil || fn.Name() != "Fork" || !analysis.PathMatches(recv.Obj().Pkg().Path(), rngSuffixes) {
		return nil, false
	}
	return ast.Unparen(call.Fun).(*ast.SelectorExpr).X, true
}

// declaredOutside reports whether the root identifier of expr was
// declared outside lit.
func declaredOutside(pass *analysis.Pass, expr ast.Expr, lit *ast.FuncLit) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.CallExpr:
			return false // fresh value from a call: not a shared outer source
		default:
			return false
		}
	}
}

// isPkgFunc reports whether fun resolves to a package-level function in a
// package matching one of the path suffixes with a name in names.
func isPkgFunc(pass *analysis.Pass, fun ast.Expr, suffixes []string, names map[string]bool) bool {
	path, name := analysis.PkgFunc(pass, fun)
	return path != "" && analysis.PathMatches(path, suffixes) && names[name]
}
