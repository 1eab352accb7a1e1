// Package lockcallback flags user callbacks invoked, and channel
// sends performed, while a sync.Mutex or sync.RWMutex is held.
//
// This is the deadlock shape a callback-wired pipeline invites — the
// reflector's change notifications (core.GeoRR.OnChangeBatch, which
// holds no lock: its policy is an atomically published snapshot) feed
// the forwarding plane, whose fib.Publisher calls its resolver under
// its own lock: a component fans an event out to subscriber functions
// while holding the lock its subscribers need (the callback calls back
// into the component), or blocks on a channel send its consumer can
// only drain after taking the same lock. Both compile, pass small tests, and
// deadlock under load.
//
// The check is intra-procedural and syntactic: within one function
// body, a lock is considered held from a mu.Lock()/mu.RLock() call to
// the next textual mu.Unlock()/mu.RUnlock() on the same receiver
// expression, or to the end of the function if the unlock is deferred
// (or absent). In that span it flags calls of function-typed values
// (fields, locals, parameters — not declared funcs or methods) and
// channel send statements. Function literals defined in the span run
// later, under their own analysis, and are skipped. Callbacks that are
// documented to run under the lock carry //vnslint:lockheld.
package lockcallback

import (
	"go/ast"
	"go/token"
	"go/types"

	"vns/internal/analysis"
)

// Analyzer is the lockcallback check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockcallback",
	Doc:       "no user callbacks or channel sends while holding a sync Mutex/RWMutex",
	Directive: "lockheld",
	Run:       run,
}

// isSyncLocker reports whether t (possibly behind pointers) is
// sync.Mutex or sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// span is one held-lock interval within a function body.
type span struct {
	from, to token.Pos
	recv     string
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkBody(pass, fd.Body)
			}
		}
		// Function literals get the same treatment, each body on its
		// own: a lock taken by the enclosing function does not carry
		// into a literal (it may run on another goroutine), and vice
		// versa.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
				checkBody(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// lockEvent is a Lock or Unlock call found in a body.
type lockEvent struct {
	pos    token.Pos
	recv   string
	lock   bool
	defers bool
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []lockEvent

	// classify records mu.Lock/Unlock calls, skipping nested literals.
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := pass.TypesInfo.Selections[sel]
				if s == nil || s.Kind() != types.MethodVal || !isSyncLocker(s.Recv()) {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					events = append(events, lockEvent{pos: n.Pos(), recv: types.ExprString(sel.X), lock: true})
				case "Unlock", "RUnlock":
					events = append(events, lockEvent{pos: n.Pos(), recv: types.ExprString(sel.X), defers: inDefer})
				}
			}
			return true
		})
	}
	walk(body, false)

	var spans []span
	for i, ev := range events {
		if !ev.lock {
			continue
		}
		held := span{from: ev.pos, to: body.End(), recv: ev.recv}
		for _, later := range events[i+1:] {
			if !later.lock && !later.defers && later.recv == ev.recv && later.pos > ev.pos {
				held.to = later.pos
				break
			}
		}
		spans = append(spans, held)
	}
	if len(spans) == 0 {
		return
	}

	inSpan := func(pos token.Pos) (string, bool) {
		for _, s := range spans {
			if pos > s.from && pos < s.to {
				return s.recv, true
			}
		}
		return "", false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if recv, ok := inSpan(n.Pos()); ok {
				pass.Reportf(n.Pos(),
					"channel send while holding %s: the receiver may need the same lock; send after unlocking", recv)
			}
		case *ast.CallExpr:
			if !isFuncValueCall(pass, n) {
				return true
			}
			if recv, ok := inSpan(n.Pos()); ok {
				pass.Reportf(n.Pos(),
					"callback invoked while holding %s: callbacks may re-enter the locked component; call after unlocking, or annotate with //vnslint:lockheld", recv)
			}
		}
		return true
	})
}

// isFuncValueCall reports whether call invokes a function-typed value
// (a field, local, or parameter) rather than a declared function,
// method, builtin, or type conversion.
func isFuncValueCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		s := pass.TypesInfo.Selections[fun]
		if s != nil {
			if s.Kind() != types.FieldVal {
				return false // method value call
			}
			obj = s.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	_, isSig := v.Type().Underlying().(*types.Signature)
	return isSig
}
