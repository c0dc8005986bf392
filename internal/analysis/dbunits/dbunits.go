// Package dbunits tracks the repository's dB/linear naming convention
// through expressions and call boundaries. The paper's Sec 3.5
// amplification rule (A = min(C − margin, a − 3 dB) and its
// residual-aware variant) mixes logarithmic and linear quantities that
// Go's type system cannot tell apart — both are float64 — so one missed
// math.Pow(10, x/10) corrupts results silently. The convention is the
// type system we do have: names suffixed DB/DBm carry decibels, names
// suffixed Lin carry linear power ratios.
//
// The analyzer flags, for expressions of floating-point type:
//
//   - additive combination or ordered/equality comparison of a dB-named
//     value with a linear-named one (dB+dB and lin*lin are the legal
//     idioms; dB+lin is always a bug);
//   - assigning a value of one unit class to a variable named for the
//     other;
//   - passing a value of one unit class to a parameter named for the
//     other (parameter names survive export data, so this works across
//     package boundaries);
//   - returning a value of one unit class from a function whose name
//     promises the other.
//
// Multiplication and division are deliberately exempt: scaling a dB
// value by a dimensionless factor (x/2, 10*math.Log10(v)) is routine and
// unit-preserving or unit-creating. Unknown-named operands never flag —
// the analyzer only acts when both sides declare a unit.
package dbunits

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fastforward/internal/analysis"
)

type unit int

const (
	unitUnknown unit = iota
	unitDB
	unitLin
)

func (u unit) String() string {
	switch u {
	case unitDB:
		return "dB"
	case unitLin:
		return "linear"
	}
	return "unknown"
}

// Default returns the dbunits analyzer (it has no configuration: the
// naming convention is the interface).
func Default() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "dbunits",
		Doc:  "flag mixing of dB-named and linear-named float quantities across operators, assignments, calls, and returns",
		Run: func(pass *analysis.Pass) error {
			run(pass)
			return nil
		},
	}
}

// unitOfName classifies an identifier by suffix. dBm (absolute power in
// log domain) counts as the dB family: adding dB to dBm is legal log
// arithmetic, adding either to a linear ratio is not. Conversion
// functions named XFromY ("WattsFromDBm") promise X, not Y: the part
// before "From" is what the value is, the part after is what it was.
func unitOfName(name string) unit {
	if i := strings.Index(name, "From"); i > 0 {
		return unitOfName(name[:i])
	}
	switch {
	case strings.HasSuffix(name, "DB"), strings.HasSuffix(name, "Db"),
		strings.HasSuffix(name, "DBm"), strings.HasSuffix(name, "Dbm"),
		name == "dB", name == "dBm", name == "db", name == "dbm":
		return unitDB
	case strings.HasSuffix(name, "Lin"), strings.HasSuffix(name, "Linear"),
		name == "lin", name == "linear":
		return unitLin
	}
	return unitUnknown
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkBinary(pass, n)
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ValueSpec:
				checkValueSpec(pass, n)
			case *ast.CallExpr:
				checkCallArgs(pass, n)
			}
			return true
		})
		// Return-vs-function-name checks walk each declaration separately
		// so a func literal's returns are never attributed to the
		// enclosing declaration's name contract.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncReturns(pass, fn)
		}
	}
}

// checkFuncReturns applies checkReturn to every return statement directly
// inside fn (descending into blocks but not into nested func literals).
func checkFuncReturns(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			checkReturn(pass, fn, n)
		}
		return true
	})
}

// isFloat reports whether the expression's type is a floating-point (or
// untyped numeric) value — the only domain where the dB/linear
// distinction is meaningful.
func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return true // missing info: don't let it silence a name conflict
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsUntyped) != 0
}

// classify walks an expression and derives its unit from the names it is
// built of.
func classify(pass *analysis.Pass, e ast.Expr) unit {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return unitOfName(e.Name)
	case *ast.SelectorExpr:
		return unitOfName(e.Sel.Name)
	case *ast.IndexExpr:
		return classify(pass, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return classify(pass, e.X)
		}
	case *ast.CallExpr:
		// Type conversions are transparent: float64(xDB) is still dB.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return classify(pass, e.Args[0])
		}
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			return unitOfName(fun.Name)
		case *ast.SelectorExpr:
			return unitOfName(fun.Sel.Name)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB:
			lu, ru := classify(pass, e.X), classify(pass, e.Y)
			if lu == unitUnknown {
				return ru
			}
			if ru == unitUnknown || ru == lu {
				return lu
			}
			// Conflicting operands: checkBinary reports at the operator;
			// the combined value has no trustworthy unit.
			return unitUnknown
		}
	}
	return unitUnknown
}

func conflict(a, b unit) bool {
	return a != unitUnknown && b != unitUnknown && a != b
}

func checkBinary(pass *analysis.Pass, e *ast.BinaryExpr) {
	switch e.Op {
	case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	if !isFloat(pass, e.X) || !isFloat(pass, e.Y) {
		return
	}
	lu, ru := classify(pass, e.X), classify(pass, e.Y)
	if conflict(lu, ru) {
		pass.Reportf(e.OpPos, "%s-named value %s %s %s-named value: convert explicitly (10*math.Log10(lin) or math.Pow(10, db/10)) before combining", lu, analysis.ExprString(e.X), e.Op, ru)
	}
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lu := classify(pass, lhs)
		if lu == unitUnknown || !isFloat(pass, as.Rhs[i]) {
			continue
		}
		ru := classify(pass, as.Rhs[i])
		if conflict(lu, ru) {
			pass.Reportf(as.Pos(), "assigning %s-named value to %s-named %s", ru, lu, analysis.ExprString(lhs))
		}
	}
}

func checkValueSpec(pass *analysis.Pass, vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		lu := unitOfName(name.Name)
		if lu == unitUnknown || !isFloat(pass, vs.Values[i]) {
			continue
		}
		ru := classify(pass, vs.Values[i])
		if conflict(lu, ru) {
			pass.Reportf(vs.Pos(), "assigning %s-named value to %s-named %s", ru, lu, name.Name)
		}
	}
}

// checkCallArgs matches argument units against parameter names — these
// survive gc export data, so cross-package calls are covered too.
func checkCallArgs(pass *analysis.Pass, call *ast.CallExpr) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; !ok || tv.IsType() {
		return // conversion (or no info)
	}
	tv := pass.TypesInfo.Types[call.Fun]
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() || (sig.Variadic() && i >= params.Len()-1) {
			break
		}
		p := params.At(i)
		pu := unitOfName(p.Name())
		if pu == unitUnknown || !isFloat(pass, arg) {
			continue
		}
		au := classify(pass, arg)
		if conflict(pu, au) {
			pass.Reportf(arg.Pos(), "passing %s-named value %s to %s-named parameter %s", au, analysis.ExprString(arg), pu, p.Name())
		}
	}
}

// checkReturn holds a function to its own name: FooDB must not return a
// linear-named value and vice versa. Only single-result float functions
// participate; multi-result functions name their results instead.
func checkReturn(pass *analysis.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	fu := unitOfName(fn.Name.Name)
	if fu == unitUnknown || len(ret.Results) != 1 {
		return
	}
	if fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
		return
	}
	if !isFloat(pass, ret.Results[0]) {
		return
	}
	ru := classify(pass, ret.Results[0])
	if conflict(fu, ru) {
		pass.Reportf(ret.Pos(), "function %s returns a %s-named value; its name promises %s", fn.Name.Name, ru, fu)
	}
}
