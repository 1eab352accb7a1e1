// Package hotalloc enforces allocation-freedom on annotated hot paths,
// transitively across packages via facts.
//
// The repo's performance claims rest on hot loops that must not touch
// the allocator: flowsim's shard step has a CI ns/flow budget with
// allocs/op == 0, the telemetry counter add has a 25ns ceiling, the
// FIB lookup is advertised as wait-free. Those are runtime checks —
// they catch a regression only when the benchmark runs, on the inputs
// the benchmark uses. This analyzer is the static counterpart: a
// function whose declaration carries a //vnslint:hotpath directive
// (last doc-comment line, directly above the func keyword) must be
// provably allocation-free, and so must everything it transitively
// calls.
//
// The proof is a whole-program fact graph. For EVERY function in every
// analyzed package the pass computes an allocation summary — does the
// body make/new, grow with append, build escaping composite literals,
// box into interfaces, capture closures, concatenate strings, call
// fmt, or call anything unprovable — and exports it as an AllocFact on
// the function object. Because the driver analyzes packages in
// dependency order through one loader, a hot function in flowsim that
// calls netsim's TransitAggregate resolves the callee's fact directly:
// the cross-package edge is checked without re-analyzing netsim.
//
// Calls the summary cannot chase (interface methods, func values) and
// intentional allocations on cold branches are justified site-by-site
// with //vnslint:hotalloc <why>; the directive excludes the site from
// the summary, so the justification clears every hot caller at once.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"vns/internal/analysis"
)

// AllocFact is the exported per-function allocation summary.
type AllocFact struct {
	// Allocates reports that the function may allocate (directly, via a
	// callee, or because a call could not be proven either way).
	Allocates bool
	// Reason names the first offending site, e.g.
	// "shard.go:291: slice literal allocates its backing array".
	Reason string
}

// AFact marks AllocFact as a fact type.
func (*AllocFact) AFact() {}

func (f *AllocFact) String() string {
	if !f.Allocates {
		return "alloc-free"
	}
	return "allocates: " + f.Reason
}

// HotFact marks a function annotated //vnslint:hotpath, so the fact
// graph records which roots the allocation discipline flows from.
type HotFact struct{}

// AFact marks HotFact as a fact type.
func (*HotFact) AFact() {}

func (*HotFact) String() string { return "hotpath" }

// Analyzer is the hotalloc check. It has no Scope: summaries are
// whole-program, and only annotated functions yield diagnostics.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "functions marked //vnslint:hotpath (and everything they call, via facts) must be allocation-free",
	Directive: "hotalloc",
	FactTypes: []analysis.Fact{(*AllocFact)(nil), (*HotFact)(nil)},
	Run:       run,
}

// allocFreePkgs are standard-library packages whose exported functions
// never heap-allocate: pure arithmetic and atomics.
var allocFreePkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"cmp":         true,
}

// allocFreeFuncs are individually vetted standard-library functions
// and methods (keyed by types.Func.FullName) that appear on hot paths:
// mutex fast paths, netip value-type accessors, duration arithmetic.
var allocFreeFuncs = map[string]bool{
	"(*sync.Mutex).Lock":           true,
	"(*sync.Mutex).Unlock":         true,
	"(*sync.Mutex).TryLock":        true,
	"(*sync.RWMutex).RLock":        true,
	"(*sync.RWMutex).RUnlock":      true,
	"(*sync.RWMutex).Lock":         true,
	"(*sync.RWMutex).Unlock":       true,
	"(net/netip.Addr).Is4":         true,
	"(net/netip.Addr).Is4In6":      true,
	"(net/netip.Addr).Is6":         true,
	"(net/netip.Addr).Unmap":       true,
	"(net/netip.Addr).As4":         true,
	"(net/netip.Addr).As16":        true,
	"(net/netip.Addr).Less":        true,
	"(net/netip.Addr).Compare":     true,
	"(net/netip.Addr).IsValid":     true,
	"(net/netip.Prefix).Addr":      true,
	"(net/netip.Prefix).Bits":      true,
	"(net/netip.Prefix).Contains":  true,
	"(net/netip.Prefix).IsValid":   true,
	"(net/netip.Prefix).Masked":    true,
	"net/netip.AddrFrom4":          true,
	"net/netip.PrefixFrom":         true,
	"(time.Duration).Seconds":      true,
	"(time.Duration).Milliseconds": true,
	"(time.Duration).Microseconds": true,
	"(time.Duration).Nanoseconds":  true,
}

// event is one reason a function body may allocate: either a direct
// allocation site (msg != "") or an edge to a callee whose summary
// decides (callee != nil).
type event struct {
	pos    token.Pos
	msg    string
	callee *types.Func
}

// summary is one function's collected body evidence.
type summary struct {
	decl   *ast.FuncDecl
	events []event
}

func run(pass *analysis.Pass) error {
	// Collect every function declaration in the package, in file order.
	sums := map[*types.Func]*summary{}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sums[obj] = &summary{decl: fd, events: collect(pass, fd)}
			order = append(order, obj)
		}
	}

	// Resolve each function's transitive verdict. Cycles (recursion)
	// are resolved optimistically: a cycle member allocates only if
	// some body on the cycle has its own event or an off-cycle
	// allocating callee.
	memo := map[*types.Func]*AllocFact{}
	onStack := map[*types.Func]bool{}
	var resolve func(obj *types.Func) *AllocFact
	resolve = func(obj *types.Func) *AllocFact {
		if f, ok := memo[obj]; ok {
			return f
		}
		if onStack[obj] {
			return &AllocFact{}
		}
		s := sums[obj]
		if s == nil {
			// Not declared in this package: an already-analyzed
			// dependency (fact), a vetted std function, or unprovable.
			f := &AllocFact{}
			if allowlisted(obj) {
				memo[obj] = f
				return f
			}
			if !pass.ImportObjectFact(obj, f) {
				f = &AllocFact{Allocates: true, Reason: fmt.Sprintf("no allocation summary for %s (outside the analyzed set)", obj.FullName())}
			}
			memo[obj] = f
			return f
		}
		onStack[obj] = true
		defer delete(onStack, obj)
		verdict := &AllocFact{}
		for _, e := range s.events {
			if e.callee == nil {
				verdict = &AllocFact{Allocates: true, Reason: fmt.Sprintf("%s: %s", relPos(pass.Fset, e.pos), e.msg)}
				break
			}
			if cf := resolve(e.callee); cf.Allocates {
				verdict = &AllocFact{Allocates: true, Reason: fmt.Sprintf("%s: calls %s — %s", relPos(pass.Fset, e.pos), e.callee.FullName(), clip(cf.Reason))}
				break
			}
		}
		memo[obj] = verdict
		return verdict
	}

	for _, obj := range order {
		fact := resolve(obj)
		pass.ExportObjectFact(obj, &AllocFact{Allocates: fact.Allocates, Reason: fact.Reason})
	}

	// Check the annotated hot functions: report every offending site in
	// the body, with callee edges explained through their facts.
	for _, obj := range order {
		s := sums[obj]
		if !isHot(pass, s.decl) {
			continue
		}
		pass.ExportObjectFact(obj, &HotFact{})
		for _, e := range s.events {
			if e.callee == nil {
				pass.Reportf(e.pos, "hot path (%s): %s", obj.Name(), e.msg)
				continue
			}
			if cf := resolve(e.callee); cf.Allocates {
				pass.Reportf(e.pos, "hot path (%s): calls %s, which is not allocation-free: %s", obj.Name(), e.callee.FullName(), clip(cf.Reason))
			}
		}
	}
	return nil
}

// isHot reports whether the declaration carries //vnslint:hotpath on
// its line or the line directly above (the tail of its doc comment).
func isHot(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	return pass.Allowed(decl.Name.Pos(), "hotpath")
}

// allowlisted reports whether the callee is a vetted standard-library
// function that cannot allocate.
func allowlisted(obj *types.Func) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return true // error.Error and friends resolve elsewhere
	}
	return allocFreePkgs[pkg.Path()] || allocFreeFuncs[obj.FullName()]
}

// collect walks one function body and records allocation evidence.
// Sites annotated //vnslint:hotalloc are excluded: the justification
// clears the summary for every hot caller at once.
func collect(pass *analysis.Pass, decl *ast.FuncDecl) []event {
	if decl.Body == nil {
		return []event{{pos: decl.Pos(), msg: "function has no body; allocation-freedom cannot be proven"}}
	}
	var events []event
	add := func(pos token.Pos, format string, args ...any) {
		if pass.Allowed(pos, "hotalloc") {
			return
		}
		events = append(events, event{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	addCallee := func(pos token.Pos, fn *types.Func) {
		if pass.Allowed(pos, "hotalloc") {
			return
		}
		events = append(events, event{pos: pos, callee: fn})
	}
	typeOf := func(e ast.Expr) types.Type { return pass.TypesInfo.Types[e].Type }

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			add(n.Pos(), "closure (func literal) allocates its capture environment")
			return false
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
			return false
		case *ast.DeferStmt:
			add(n.Pos(), "defer allocates a deferred-call record")
			return false
		case *ast.CompositeLit:
			switch typeOf(n).Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			case *types.Slice:
				add(n.Pos(), "slice literal allocates its backing array")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					add(n.Pos(), "&composite-literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(typeOf(n)) {
				add(n.Pos(), "string concatenation allocates")
			}
		case *ast.ValueSpec:
			// var x Iface = concrete
			if n.Type != nil && len(n.Values) > 0 {
				to := typeOf(n.Type)
				for _, v := range n.Values {
					if boxes(to, typeOf(v)) {
						add(v.Pos(), "interface boxing allocates (concrete value assigned to %s)", typeStr(to))
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(typeOf(n.Lhs[0])) {
				add(n.Pos(), "string concatenation allocates")
			}
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if t := typeOf(idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							add(lhs.Pos(), "map assignment may allocate (insert/rehash)")
						}
					}
				}
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					to, from := typeOf(n.Lhs[i]), typeOf(n.Rhs[i])
					if n.Tok == token.ASSIGN && boxes(to, from) {
						add(n.Rhs[i].Pos(), "interface boxing allocates (concrete value assigned to %s)", typeStr(to))
					}
				}
			}
		case *ast.ReturnStmt:
			sig := pass.TypesInfo.Defs[decl.Name].(*types.Func).Signature()
			if sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					if boxes(sig.Results().At(i).Type(), typeOf(r)) {
						add(r.Pos(), "interface boxing allocates (concrete value returned as %s)", typeStr(sig.Results().At(i).Type()))
					}
				}
			}
		case *ast.CallExpr:
			return handleCall(pass, n, add, addCallee)
		}
		return true
	})
	return events
}

// handleCall classifies one call expression; it returns whether the
// walk should descend into the call's children.
func handleCall(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string, ...any), addCallee func(token.Pos, *types.Func)) bool {
	typeOf := func(e ast.Expr) types.Type { return pass.TypesInfo.Types[e].Type }

	// Conversion T(x).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, typeOf(call.Args[0])
		switch {
		case boxes(to, from):
			add(call.Pos(), "interface boxing allocates (conversion to %s)", typeStr(to))
		case convAllocates(to, from):
			add(call.Pos(), "conversion %s(%s) allocates", typeStr(to), typeStr(from))
		}
		return true
	}

	// Builtin.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				add(call.Pos(), "append may grow its backing array (no capacity proof)")
			case "print", "println":
				add(call.Pos(), "built-in %s allocates", b.Name())
			case "panic":
				// Failure path: boxing the panic value is moot.
				return false
			}
			return true
		}
	}

	callee := analysis.Callee(pass.TypesInfo, call)
	if callee == nil {
		add(call.Pos(), "dynamic call (interface method or func value); allocation-freedom cannot be proven")
		return true
	}

	// Boxing at the call boundary.
	sig := callee.Signature()
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		pt := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 && call.Ellipsis == token.NoPos {
			break // handled below
		}
		if boxes(pt, typeOf(arg)) {
			add(arg.Pos(), "interface boxing allocates (argument %d of %s is %s)", i+1, callee.Name(), typeStr(pt))
		}
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		add(call.Pos(), "variadic call to %s allocates its argument slice", callee.Name())
		return true
	}

	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		add(call.Pos(), "fmt.%s allocates (reflection-driven formatting)", callee.Name())
		return true
	}
	if allowlisted(callee) {
		return true
	}
	addCallee(call.Pos(), callee)
	return true
}

// boxes reports whether assigning a value of type from to type to
// requires an interface conversion that may heap-allocate.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if !types.IsInterface(to) || types.IsInterface(from) {
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// convAllocates reports whether the explicit conversion allocates:
// string <-> []byte/[]rune, and numeric -> string.
func convAllocates(to, from types.Type) bool {
	toStr, fromStr := isString(to), isString(from)
	if toStr && !fromStr {
		return true
	}
	if !toStr && fromStr {
		switch to.Underlying().(type) {
		case *types.Slice:
			return true
		}
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeStr(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return t.String()
}

// relPos renders a position as base-filename:line, stable across
// checkouts for fact reasons and golden tests.
func relPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// clip bounds chained reasons so a deep call path stays readable.
func clip(s string) string {
	const max = 220
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
