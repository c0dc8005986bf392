// Package netdeadline enforces the daemon's deadline discipline on
// net.Conn I/O: inside the configured packages (internal/relayd), every
// conn Read/Write — direct, or through a helper the conn is passed to —
// must be reachable only after a Set{Read,Write}Deadline on the same
// conn in the same function, and the error a deadline setter returns
// must not be discarded (a conn whose setter fails is already dead, and
// ignoring it turns the next I/O into an unbounded block).
//
// The analyzer classifies every function in the package by what it does
// with each parameter, to a fixpoint: a function that arms a deadline on
// its conn parameter before any I/O (relayd's setWriteDeadline,
// readSessionFrame, handleConn) counts as arming it at the call site; a
// function that performs I/O on a parameter without arming it first
// requires the caller to have armed the conn — such helpers must declare
// the parameter io.Writer or *bufio.Reader (writeFrame, readFrame:
// framing is transport-agnostic by design), because unarmed I/O directly
// on a net.Conn parameter is itself flagged. Methods that arm a
// deadline on a receiver field (an arm() method on c.conn) arm that
// field for the caller. Passing a conn to an unknown or external
// function (io.ReadFull) counts as I/O; building a bufio.Reader over it
// does not.
//
// A *bufio.Reader over a conn reads that conn, so every read through it
// (any method but Size, Buffered and Reset, or handing it to a helper
// that reads) needs the conn's deadline armed. The reader is tied to its
// conn in three shapes: a local built by bufio.NewReader/NewReaderSize
// over the conn (handleConn's br); a parameter beside the function's one
// conn parameter (readSessionFrame(conn, br)), whose reads count as I/O
// on that conn parameter for the fixpoint; and a struct field beside the
// struct's one conn field (clientConn's c.br beside c.conn).
//
// The scan is linear within each function body, the same deliberate
// trade as lockscope: a branch-local false positive is annotated with
// `//fflint:allow netdeadline <reason>`, and the straight-line handler
// states the daemon actually uses are covered exactly.
package netdeadline

import (
	"go/ast"
	"go/types"
	"strings"

	"fastforward/internal/analysis"
)

// Config tunes the analyzer for tests; the zero value is the production
// configuration for this repository.
type Config struct {
	// Packages are import-path suffixes subject to the deadline rules
	// (the packages doing deadline-bounded conn I/O).
	Packages []string
}

var defaultPackages = []string{"internal/relayd"}

var setterNames = map[string]bool{
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// neutralConnMethods neither arm nor perform deadline-bounded I/O.
var neutralConnMethods = map[string]bool{
	"Close": true, "LocalAddr": true, "RemoteAddr": true, "String": true,
}

// neutralReaderMethods are the *bufio.Reader methods that never read its
// source; every other method may.
var neutralReaderMethods = map[string]bool{
	"Size": true, "Buffered": true, "Reset": true,
}

// New returns the netdeadline analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.Packages == nil {
		cfg.Packages = defaultPackages
	}
	return &analysis.Analyzer{
		Name: "netdeadline",
		Doc:  "conn I/O only after a deadline is armed on the same conn; deadline-setter errors must be checked",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

// paramKind classifies what a function does with one parameter.
type paramKind int

const (
	kindNeutral paramKind = iota // no deadline-relevant use
	kindArms                     // arms a deadline before any I/O
	kindIO                       // performs I/O with no (or later) arming
)

// funcInfo is the per-function classification.
type funcInfo struct {
	decl   *ast.FuncDecl
	params []*ast.Ident // in signature order, nil for unnamed/_
	kinds  []paramKind
	// armsField is the receiver field (e.g. "conn") this method arms a
	// deadline on, or "" — an arm() method on c.conn arms it for its caller.
	armsField string
	recvName  string // receiver ident name, for field matching
	// readers maps each buffered reader over a conn to that conn.
	readers map[types.Object]ast.Expr
}

func run(pass *analysis.Pass, cfg Config) {
	if !analysis.PathMatches(pass.Pkg.Path(), cfg.Packages) {
		return
	}
	infos := classify(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, infos, fd)
			}
		}
	}
}

// classify computes every package function's per-parameter kind and
// receiver-field arming, iterating to a fixpoint so helper chains
// (refuse -> setWriteDeadline) classify transitively.
func classify(pass *analysis.Pass) map[*types.Func]*funcInfo {
	infos := map[*types.Func]*funcInfo{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd, readers: readerConns(pass, fd)}
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					fi.params = append(fi.params, name)
					fi.kinds = append(fi.kinds, kindNeutral)
				}
				if len(field.Names) == 0 {
					fi.params = append(fi.params, nil)
					fi.kinds = append(fi.kinds, kindNeutral)
				}
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				fi.recvName = fd.Recv.List[0].Names[0].Name
			}
			infos[obj] = fi
		}
	}
	for round := 0; round < 5; round++ {
		changed := false
		for _, fi := range infos {
			if classifyOne(pass, infos, fi) {
				changed = true
			}
		}
		if !changed {
			return infos
		}
	}
	return infos
}

// classifyOne recomputes one function's classification against the
// current state of every other function's, reporting whether it changed.
func classifyOne(pass *analysis.Pass, infos map[*types.Func]*funcInfo, fi *funcInfo) bool {
	// Track, per parameter, the first arming and first I/O position.
	setterAt := make([]int, len(fi.params))
	ioAt := make([]int, len(fi.params))
	order := 0
	var fieldArm string

	// paramIndex resolves e to a parameter; I/O through a buffered
	// reader over a conn parameter is I/O on that parameter.
	var paramIndex func(e ast.Expr) int
	paramIndex = func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return -1
		}
		if conn, ok := fi.readers[obj]; ok {
			return paramIndex(conn)
		}
		for i, p := range fi.params {
			if p != nil && obj == pass.TypesInfo.ObjectOf(p) {
				return i
			}
		}
		return -1
	}
	recvField := func(e ast.Expr) string {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || fi.recvName == "" {
			return ""
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == fi.recvName {
			return sel.Sel.Name
		}
		return ""
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		order++
		// Direct method calls on a parameter or receiver field.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if i := paramIndex(sel.X); i >= 0 {
				switch {
				case setterNames[sel.Sel.Name]:
					if setterAt[i] == 0 {
						setterAt[i] = order
					}
				case neutralConnMethods[sel.Sel.Name]:
				case neutralReaderMethods[sel.Sel.Name] && isBufReader(pass.TypesInfo.TypeOf(sel.X)):
				default:
					if ioAt[i] == 0 {
						ioAt[i] = order
					}
				}
				return true
			}
			if f := recvField(sel.X); f != "" && setterNames[sel.Sel.Name] && fieldArm == "" {
				fieldArm = f
			}
		}
		// Parameters or receiver fields passed as arguments.
		callee := calleeInfo(pass, infos, call)
		for argPos, arg := range call.Args {
			if i := paramIndex(arg); i >= 0 {
				switch argKind(pass, callee, call, argPos) {
				case kindArms:
					if setterAt[i] == 0 {
						setterAt[i] = order
					}
				case kindIO:
					if ioAt[i] == 0 {
						ioAt[i] = order
					}
				}
			}
			if f := recvField(arg); f != "" && fieldArm == "" {
				if argKind(pass, callee, call, argPos) == kindArms {
					fieldArm = f
				}
			}
		}
		return true
	})

	changed := false
	for i := range fi.params {
		k := kindNeutral
		switch {
		case setterAt[i] > 0 && (ioAt[i] == 0 || setterAt[i] < ioAt[i]):
			k = kindArms
		case ioAt[i] > 0:
			k = kindIO
		}
		if fi.kinds[i] != k {
			fi.kinds[i] = k
			changed = true
		}
	}
	if fieldArm != fi.armsField {
		fi.armsField = fieldArm
		changed = true
	}
	return changed
}

// calleeInfo resolves a call to a same-package function's classification,
// or nil for external, builtin, and unresolvable callees.
func calleeInfo(pass *analysis.Pass, infos map[*types.Func]*funcInfo, call *ast.CallExpr) *funcInfo {
	id := calleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return infos[fn]
}

// argKind reports what the callee does with the argument at argPos:
// same-package callees answer from their classification, builtins and
// conversions are neutral, and anything external counts as I/O (the
// conservative reading of handing a conn to io.ReadFull).
func argKind(pass *analysis.Pass, callee *funcInfo, call *ast.CallExpr, argPos int) paramKind {
	if callee != nil {
		if argPos < len(callee.kinds) {
			return callee.kinds[argPos]
		}
		return kindNeutral
	}
	id := calleeIdent(call)
	if id == nil {
		return kindNeutral
	}
	switch fn := pass.TypesInfo.Uses[id].(type) {
	case *types.Builtin:
		return kindNeutral
	case *types.TypeName:
		return kindNeutral // conversion
	case *types.Func:
		if isReaderCtor(fn) {
			return kindNeutral // building a reader reads nothing
		}
		return kindIO
	}
	return kindNeutral
}

// isConn reports whether t is (or points to) the named interface
// net.Conn; the package matches on its final path element so fixtures
// can stub net.
func isConn(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Name() != "Conn" {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "net" || strings.HasSuffix(path, "/net")
}

// isBufReader reports whether t is *bufio.Reader.
func isBufReader(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "bufio" && n.Obj().Name() == "Reader"
}

// isReaderCtor reports whether fn is bufio.NewReader or NewReaderSize.
func isReaderCtor(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "bufio" &&
		(fn.Name() == "NewReader" || fn.Name() == "NewReaderSize")
}

// readerConns maps each *bufio.Reader variable of fd that reads a conn to
// that conn: a local built by bufio.NewReader/NewReaderSize over a conn,
// or a parameter beside the function's one conn parameter (the
// readSessionFrame(conn, br) shape). A reader parameter of a function
// with no conn parameter is a caller-arms helper's, like an io.Reader's.
func readerConns(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]ast.Expr {
	readers := map[types.Object]ast.Expr{}
	var conn ast.Expr
	conns := 0
	var bufParams []*ast.Ident
	for _, field := range fd.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		for _, name := range field.Names {
			switch {
			case isConn(t):
				conn = name
				conns++
			case isBufReader(t):
				bufParams = append(bufParams, name)
			}
		}
	}
	if conns == 1 {
		for _, name := range bufParams {
			if obj := pass.TypesInfo.ObjectOf(name); obj != nil {
				readers[obj] = conn
			}
		}
	}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isCall || len(call.Args) == 0 || !isConn(pass.TypesInfo.TypeOf(call.Args[0])) {
			return
		}
		fn, _ := pass.TypesInfo.Uses[calleeIdent(call)].(*types.Func)
		if obj := pass.TypesInfo.ObjectOf(id); fn != nil && isReaderCtor(fn) && obj != nil {
			readers[obj] = call.Args[0]
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return readers
}

// calleeIdent is the identifier naming call's function, or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel
	case *ast.Ident:
		return fun
	}
	return nil
}

// readerConn returns the armed-set key of the conn a *bufio.Reader
// expression reads: a mapped local or parameter's conn, or for a struct
// field (c.br) the struct's one conn field (c.conn).
func readerConn(pass *analysis.Pass, readers map[types.Object]ast.Expr, e ast.Expr) (string, bool) {
	if !isBufReader(pass.TypesInfo.TypeOf(e)) {
		return "", false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if conn, ok := readers[pass.TypesInfo.ObjectOf(e)]; ok {
			return analysis.ExprString(conn), true
		}
	case *ast.SelectorExpr:
		t := pass.TypesInfo.TypeOf(e.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		field := ""
		for i := 0; i < st.NumFields(); i++ {
			if isConn(st.Field(i).Type()) {
				if field != "" {
					return "", false // two conns: which one is ambiguous
				}
				field = st.Field(i).Name()
			}
		}
		if field != "" {
			return analysis.ExprString(e.X) + "." + field, true
		}
	}
	return "", false
}

// checkFunc runs the linear armed-deadline scan over one function body
// and flags discarded deadline-setter errors.
func checkFunc(pass *analysis.Pass, infos map[*types.Func]*funcInfo, fd *ast.FuncDecl) {
	armed := map[string]bool{}
	readers := readerConns(pass, fd)
	// fieldArmers: method receiver type -> method name -> armed field.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name := discardedSetter(pass, call); name != "" {
					pass.Reportf(call.Pos(), "%s result discarded: a failed deadline setter means the conn is already dead — check it, count it, close the conn", name)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && allBlank(n.Lhs) {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if name := discardedSetter(pass, call); name != "" {
						pass.Reportf(call.Pos(), "%s result discarded: a failed deadline setter means the conn is already dead — check it, count it, close the conn", name)
					}
				}
			}
		case *ast.CallExpr:
			checkCall(pass, infos, readers, n, armed)
		}
		return true
	})
}

// checkCall updates and checks the armed set for one call expression.
func checkCall(pass *analysis.Pass, infos map[*types.Func]*funcInfo, readers map[types.Object]ast.Expr, call *ast.CallExpr, armed map[string]bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// Direct method call on a conn-typed expression.
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isConn(tv.Type) {
			key := analysis.ExprString(sel.X)
			switch {
			case setterNames[sel.Sel.Name]:
				armed[key] = true
			case neutralConnMethods[sel.Sel.Name]:
			default:
				if !armed[key] {
					pass.Reportf(call.Pos(), "%s.%s without a deadline armed on %s in this function: unbounded block on a stuck peer (arm a Set{Read,Write}Deadline first)", key, sel.Sel.Name, key)
				}
			}
			return
		}
		// Method call on a buffered reader over a conn: a read of the conn.
		if key, ok := readerConn(pass, readers, sel.X); ok {
			if !neutralReaderMethods[sel.Sel.Name] && !armed[key] {
				pass.Reportf(call.Pos(), "%s.%s reads conn %s without a deadline armed on it in this function: unbounded block on a stuck peer (arm a Set{Read,Write}Deadline first)", analysis.ExprString(sel.X), sel.Sel.Name, key)
			}
			return
		}
		// Method call that arms a deadline on a receiver field
		// (c.arm() arms c.conn).
		if fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func); fn != nil {
			if fi := infos[fn]; fi != nil && fi.armsField != "" {
				armed[analysis.ExprString(sel.X)+"."+fi.armsField] = true
			}
		}
	}
	// Conn-typed arguments, and buffered readers over a conn, handed to
	// callees.
	callee := calleeInfo(pass, infos, call)
	for argPos, arg := range call.Args {
		if key, ok := readerConn(pass, readers, arg); ok {
			if argKind(pass, callee, call, argPos) == kindIO && !armed[key] {
				pass.Reportf(call.Pos(), "conn %s passed to I/O through %s without a deadline armed in this function: unbounded block on a stuck peer (arm a Set{Read,Write}Deadline first)", key, analysis.ExprString(arg))
			}
			continue
		}
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || !isConn(tv.Type) {
			continue
		}
		key := analysis.ExprString(arg)
		switch argKind(pass, callee, call, argPos) {
		case kindArms:
			armed[key] = true
		case kindIO:
			if !armed[key] {
				pass.Reportf(call.Pos(), "conn %s passed to I/O without a deadline armed in this function: unbounded block on a stuck peer (arm a Set{Read,Write}Deadline first)", key)
			}
		}
	}
}

// discardedSetter returns "<expr>.<SetXDeadline>" when call is a deadline
// setter on a conn whose error result is being discarded, else "".
func discardedSetter(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !setterNames[sel.Sel.Name] {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isConn(tv.Type) {
		return ""
	}
	return analysis.ExprString(sel.X) + "." + sel.Sel.Name
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
