// Package allocfree forbids per-block heap allocation in the streaming
// hot paths. The real-time budget of the relay chain (50 ns/sample at
// 20 MHz) has no room for allocator or GC work, so every Process /
// ProcessInto body in the signal-path packages must run allocation-free
// at steady state — the invariant `make bench-allocs` measures and this
// analyzer makes visible at the line that breaks it.
//
// Two rules, applied inside hot-path function bodies (Process,
// ProcessInto, ProcessM, Push, PushPair) of the signal-path packages:
//
//  1. Slice make: `make([]T, ...)` allocates per call unless it sits
//     behind the grow-once idiom — a surrounding `if cap(buf) < n`
//     guard, which amortizes to zero at steady state and is the pattern
//     the pipeline's scratch buffers use.
//
//  2. Allocating dsp helpers: dsp.Scale, ScaleC, Add, Sub, Mul, Conj,
//     Clone and friends return freshly allocated slices by design (they
//     serve the setup paths). Hot paths use their Into/InPlace variants
//     instead, which write caller-owned buffers.
//
// A site that allocates intentionally — a characterization path that
// runs once per placement, a tap stage that records by design —
// documents itself with `//fflint:allow allocfree <reason>`.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"fastforward/internal/analysis"
)

// Config tunes the analyzer for tests; the zero value is the production
// configuration for this repository.
type Config struct {
	// HotPackages are import-path suffixes whose hot-path functions are
	// checked (the packages on the per-block signal path).
	HotPackages []string
}

var defaultHotPackages = []string{
	"internal/dsp", "internal/pipeline", "internal/sic", "internal/relay",
	"internal/cnf", "internal/channel", "internal/impair",
}

// hotFuncs are the function/method names treated as per-block hot paths.
var hotFuncs = map[string]bool{
	"Process": true, "ProcessInto": true, "ProcessM": true, "Push": true, "PushPair": true,
}

// allocHelpers maps each allocating dsp helper to the zero-allocation
// variant the diagnostic suggests.
var allocHelpers = map[string]string{
	"Scale":          "ScaleInPlace",
	"ScaleC":         "ScaleCInPlace",
	"Add":            "AddInPlace",
	"Sub":            "SubInPlace",
	"Mul":            "MulInto",
	"Clone":          "copy into reused scratch",
	"Delay":          "a dsp.DelayLine pushed per block",
	"Convolve":       "a dsp.FIR or a pipeline.FIRStage",
	"Rotate":         "ScaleCInPlace with a precomputed phasor",
	"ApplyCFO":       "a pipeline.CFOStage",
	"CrossCorrelate": "a preallocated correlator scratch",
}

// New returns the allocfree analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.HotPackages == nil {
		cfg.HotPackages = defaultHotPackages
	}
	return &analysis.Analyzer{
		Name: "allocfree",
		Doc:  "forbid per-block allocation (slice make, allocating dsp helpers) in Process/ProcessInto hot paths",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

func run(pass *analysis.Pass, cfg Config) {
	if !analysis.PathMatches(pass.Pkg.Path(), cfg.HotPackages) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotFuncs[fd.Name.Name] {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

// checkHotBody flags per-call allocations in one hot-path function.
// Function literals nested inside are part of the same per-block path
// (they run when the body runs), so the walk descends into them.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	guards := growGuards(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSliceMake(pass, call) && !insideGuard(guards, call) {
			pass.Reportf(call.Pos(),
				"slice make in per-block hot path %s: allocates every call; grow once behind an `if cap(buf) < n` guard or reuse caller-owned scratch",
				fd.Name.Name)
			return true
		}
		if name, alt, ok := dspAllocHelper(pass, call); ok {
			pass.Reportf(call.Pos(),
				"allocating dsp.%s in per-block hot path %s: returns a fresh slice every call; use %s",
				name, fd.Name.Name, alt)
		}
		return true
	})
}

// growGuards collects the if statements whose condition compares cap(...)
// — the grow-once idiom. A make inside such a body amortizes to zero
// allocations at steady state.
func growGuards(pass *analysis.Pass, body ast.Node) []*ast.IfStmt {
	var guards []*ast.IfStmt
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if ok && condComparesCap(pass, ifs.Cond) {
			guards = append(guards, ifs)
		}
		return true
	})
	return guards
}

// condComparesCap reports whether the condition contains an ordered
// comparison with a builtin cap() call on either side (possibly joined
// with || / && for multi-buffer guards).
func condComparesCap(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
		default:
			return true
		}
		if isCapCall(pass, be.X) || isCapCall(pass, be.Y) {
			found = true
		}
		return !found
	})
	return found
}

func isCapCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "cap" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func insideGuard(guards []*ast.IfStmt, n ast.Node) bool {
	for _, g := range guards {
		if g.Body.Pos() <= n.Pos() && n.End() <= g.Body.End() {
			return true
		}
	}
	return false
}

// isSliceMake matches `make([]T, ...)` (slice results only: making maps
// or channels in a hot path is a design smell detrand and review catch;
// the per-block allocator churn this analyzer targets is slices).
func isSliceMake(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}

// dspAllocHelper resolves a call to one of the allocating dsp package
// helpers, returning its name and the suggested replacement. The dsp
// package is matched by import-path suffix so fixtures can stub it.
func dspAllocHelper(pass *analysis.Pass, call *ast.CallExpr) (name, alt string, ok bool) {
	path, name := analysis.PkgFunc(pass, call.Fun)
	if !analysis.PathMatches(path, []string{"dsp"}) {
		return "", "", false
	}
	alt, ok = allocHelpers[name]
	return name, alt, ok
}
