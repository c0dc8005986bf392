// Package lockscope polices the service layer's mutex discipline. The
// daemon's contract (DESIGN.md §10, OPERATIONS.md) is that admission and
// bookkeeping critical sections are pure in-memory work: a relay that
// blocks while holding a lock stalls every session sharing that lock,
// which is exactly the control-plane-stalls-the-sample-path failure the
// transparent-relay framing forbids.
//
// Three rules, all per function body (nested function literals are
// separate bodies), using a linear source-order scan:
//
//  1. No blocking operation while any sync.Mutex/RWMutex is held:
//     channel sends/receives (including `range ch` and `select` without
//     a default), time.Sleep, net.Conn Read/Write/Close,
//     net.Listener.Accept, sync.WaitGroup.Wait, and the block DSP
//     entry point pipeline.Chain.Process.
//
//  2. Every Lock/RLock must be released on every path: a `return`
//     reached while a mutex is held with no deferred unlock is a
//     finding, as is a body that ends without unlocking.
//
//  3. Lock ordering: types named in Config.LockOrder form a strict
//     outermost-to-innermost order (fleet.Pool → relayd.Server →
//     relayd.Gate → relayd.tokenBucket). While holding a leveled type's
//     lock, acquiring a lock of — or calling any method on — a type
//     further *out* in the order is an inversion.
//
// The scan is linear, not path-sensitive: it deliberately trades a
// branch-local false positive (rare; annotate with
// `//fflint:allow lockscope <reason>`) for zero tolerance on the
// straight-line patterns the daemon actually uses.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fastforward/internal/analysis"
)

// Config tunes the analyzer for tests; the zero value is the production
// configuration for this repository.
type Config struct {
	// LockOrder lists lock-owning types outermost first, as
	// "pkgbase.TypeName" entries. Holding a lock of entry i while
	// acquiring or calling into entry j < i is an inversion.
	LockOrder []string
}

var defaultLockOrder = []string{
	"fleet.Pool", "relayd.Server", "relayd.Gate", "relayd.tokenBucket",
}

// blockingMethods maps "pkgbase.Type.Method" to true for method calls
// that may block. Receiver packages match on their final path element so
// fixtures can stub net or pipeline.
var blockingMethods = map[string]bool{
	"net.Conn.Read":          true,
	"net.Conn.Write":         true,
	"net.Conn.Close":         true,
	"net.Listener.Accept":    true,
	"sync.WaitGroup.Wait":    true,
	"pipeline.Chain.Process": true,
}

// New returns the lockscope analyzer.
func New(cfg Config) *analysis.Analyzer {
	if cfg.LockOrder == nil {
		cfg.LockOrder = defaultLockOrder
	}
	return &analysis.Analyzer{
		Name: "lockscope",
		Doc:  "no blocking operations or lock-order inversions while a mutex is held; every lock released on every path",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// Default is the production-configured analyzer.
func Default() *analysis.Analyzer { return New(Config{}) }

func run(pass *analysis.Pass, cfg Config) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, cfg, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, cfg, n.Body)
			}
			return true
		})
	}
}

type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evReturn
	evBlock
	evLeveled
)

// event is one lock-relevant site in a function body, in source order.
type event struct {
	kind     eventKind
	pos      token.Pos
	key      string // mutex expression, e.g. "s.mu"
	deferred bool   // unlock registered via defer
	level    int    // LockOrder index of the owner (lock) or callee (leveled); -1 if none
	desc     string // human description for block/leveled events
}

// checkBody runs the linear scan over one function body. Nested function
// literals are skipped (they are scanned as their own bodies), except
// that a `defer func() { ... mu.Unlock() ... }()` contributes its
// unlocks as deferred unlocks of the enclosing body.
func checkBody(pass *analysis.Pass, cfg Config, body *ast.BlockStmt) {
	var events []event
	// selectComms holds the Comm statements of blocking selects, whose
	// channel operations are reported once via the select itself.
	selectComms := map[ast.Node]bool{}
	var deferredLits []*ast.FuncLit

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n == body {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate body; scanned on its own
		case *ast.DeferStmt:
			if op, key, _, ok := mutexOp(pass, cfg, n.Call); ok && (op == "Unlock" || op == "RUnlock") {
				events = append(events, event{kind: evUnlock, pos: n.Pos(), key: key, deferred: true})
				return false
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				deferredLits = append(deferredLits, lit)
				// Still skipped below when the FuncLit is visited.
			}
			return true
		case *ast.ReturnStmt:
			events = append(events, event{kind: evReturn, pos: n.Pos()})
		case *ast.SendStmt:
			if !selectComms[n] {
				events = append(events, event{kind: evBlock, pos: n.Pos(), desc: "channel send"})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !insideExemptComm(selectComms, n) {
				events = append(events, event{kind: evBlock, pos: n.Pos(), desc: "channel receive"})
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					events = append(events, event{kind: evBlock, pos: n.Pos(), desc: "range over channel"})
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
				} else {
					selectComms[cc.Comm] = true
				}
			}
			if !hasDefault {
				events = append(events, event{kind: evBlock, pos: n.Pos(), desc: "select without default"})
			}
		case *ast.CallExpr:
			events = append(events, callEvents(pass, cfg, n)...)
		}
		return true
	})

	// Deferred closures run at return time with the body's locks already
	// released or about to be: their unlocks count as deferred unlocks of
	// this body.
	for _, lit := range deferredLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, key, _, ok := mutexOp(pass, cfg, call); ok && (op == "Unlock" || op == "RUnlock") {
				events = append(events, event{kind: evUnlock, pos: lit.Pos(), key: key, deferred: true})
			}
			return true
		})
	}

	scan(pass, cfg, events)
}

// insideExemptComm reports whether the receive expression belongs to a
// select comm statement already accounted for by its select.
func insideExemptComm(comms map[ast.Node]bool, n ast.Node) bool {
	for c := range comms {
		if c.Pos() <= n.Pos() && n.End() <= c.End() {
			return true
		}
	}
	return false
}

// callEvents classifies one call expression into lock, unlock, blocking,
// or leveled-call events.
func callEvents(pass *analysis.Pass, cfg Config, call *ast.CallExpr) []event {
	if op, key, owner, ok := mutexOp(pass, cfg, call); ok {
		level := levelOf(cfg, owner)
		switch op {
		case "Lock", "RLock":
			return []event{{kind: evLock, pos: call.Pos(), key: key, level: level}}
		default:
			return []event{{kind: evUnlock, pos: call.Pos(), key: key}}
		}
	}
	if path, name := analysis.PkgFunc(pass, call.Fun); path == "time" && name == "Sleep" {
		return []event{{kind: evBlock, pos: call.Pos(), desc: "time.Sleep"}}
	}
	if fn, recv := methodRecv(pass, call); fn != nil && recv != nil {
		full := pkgBase(recv.Obj().Pkg().Path()) + "." + recv.Obj().Name() + "." + fn.Name()
		if blockingMethods[full] {
			return []event{{kind: evBlock, pos: call.Pos(), desc: full}}
		}
		if lvl := levelOf(cfg, recv); lvl >= 0 {
			return []event{{kind: evLeveled, pos: call.Pos(), level: lvl, desc: recv.Obj().Name() + "." + fn.Name()}}
		}
	}
	return nil
}

// held is the state of one currently-held mutex during the scan.
type held struct {
	key      string
	pos      token.Pos
	level    int
	deferred bool // a deferred unlock covers it to end of function
}

// scan replays the body's events in source order against a held-lock set.
func scan(pass *analysis.Pass, cfg Config, events []event) {
	var stack []held // insertion order; small
	reportedLeak := map[string]bool{}

	find := func(key string) int {
		for i, h := range stack {
			if h.key == key {
				return i
			}
		}
		return -1
	}

	for _, ev := range events {
		switch ev.kind {
		case evLock:
			if find(ev.key) >= 0 {
				pass.Reportf(ev.pos, "%s locked while already held in this function (self-deadlock)", ev.key)
			}
			for _, h := range stack {
				if h.level >= 0 && ev.level >= 0 && ev.level < h.level {
					pass.Reportf(ev.pos, "lock ordering inversion: acquiring %s (%s) while holding %s (%s); the order is %s",
						ev.key, cfg.LockOrder[ev.level], h.key, cfg.LockOrder[h.level], strings.Join(cfg.LockOrder, " -> "))
				}
			}
			stack = append(stack, held{key: ev.key, pos: ev.pos, level: ev.level})
		case evUnlock:
			if i := find(ev.key); i >= 0 {
				if ev.deferred {
					stack[i].deferred = true
				} else {
					stack = append(stack[:i], stack[i+1:]...)
				}
			}
		case evReturn:
			for _, h := range stack {
				if !h.deferred && !reportedLeak[h.key] {
					reportedLeak[h.key] = true
					pass.Reportf(ev.pos, "return while %s is held: no unlock or deferred unlock before this return", h.key)
				}
			}
		case evBlock:
			// A deferred unlock does not excuse blocking while held.
			if len(stack) > 0 {
				pass.Reportf(ev.pos, "blocking operation (%s) while %s is held: critical sections must be pure in-memory work", ev.desc, stack[0].key)
			}
		case evLeveled:
			for _, h := range stack {
				if h.level >= 0 && ev.level < h.level {
					pass.Reportf(ev.pos, "lock ordering inversion: call to %s (%s) while holding %s (%s); the order is %s",
						ev.desc, cfg.LockOrder[ev.level], h.key, cfg.LockOrder[h.level], strings.Join(cfg.LockOrder, " -> "))
				}
			}
		}
	}
	for _, h := range stack {
		if !h.deferred && !reportedLeak[h.key] {
			pass.Reportf(h.pos, "%s is locked here but never unlocked in this function", h.key)
		}
	}
}

// mutexOp matches `<expr>.Lock/RLock/Unlock/RUnlock()` calls whose
// method receiver is sync.Mutex or sync.RWMutex (directly or through
// embedding) and returns the op name, the mutex expression key, and the
// named type owning the mutex (for lock ordering), if any.
func mutexOp(pass *analysis.Pass, cfg Config, call *ast.CallExpr) (op, key string, owner *types.Named, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", nil, false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", "", nil, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", nil, false
	}
	rn := namedOf(sig.Recv().Type())
	if rn == nil || rn.Obj().Pkg() == nil || rn.Obj().Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	if n := rn.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", "", nil, false
	}
	key = analysis.ExprString(sel.X)
	// Owner: for `s.mu.Lock()` the owner is s's type; for an embedded
	// mutex (`t.Lock()`), sel.X itself is the owner.
	if xn := namedOf(typeOf(pass, sel.X)); xn != nil && !(xn.Obj().Pkg() != nil && xn.Obj().Pkg().Path() == "sync") {
		owner = xn
	} else if inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr); isSel {
		owner = namedOf(typeOf(pass, inner.X))
	}
	return sel.Sel.Name, key, owner, true
}

// methodRecv resolves a method call to its *types.Func and the named
// receiver type, or nils for non-method calls.
func methodRecv(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, *types.Named) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return nil, nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, nil
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return nil, nil
	}
	return fn, named
}

// levelOf returns the LockOrder index of the named type, or -1.
func levelOf(cfg Config, n *types.Named) int {
	if n == nil || n.Obj().Pkg() == nil {
		return -1
	}
	full := pkgBase(n.Obj().Pkg().Path()) + "." + n.Obj().Name()
	for i, entry := range cfg.LockOrder {
		if entry == full {
			return i
		}
	}
	return -1
}

func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedOf unwraps pointers and returns the named type, including named
// interface types (net.Conn).
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
