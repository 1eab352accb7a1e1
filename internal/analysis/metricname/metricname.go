// Package metricname enforces the telemetry naming contract at
// registration call sites: metric names must be snake_case with a
// subsystem prefix ("fib_lookups_total", never "Lookups" or "lookups"),
// and label names must be snake_case. Tracer span vocabulary — the
// literal layer and name passed to Record/Event — carries the same
// snake_case rule, since dashboards group spans by those strings the
// way they group metric families.
//
// The telemetry registry enforces the same shape at runtime by
// panicking, but a misnamed metric on a rarely-exercised path only
// panics when that path runs; this analyzer fails the build instead.
// Only string literals are checked — a name computed at runtime (the
// health facade's legacy-name mangling) is the registry's job.
//
// Intentional exceptions carry a //vnslint:metricname annotation.
package metricname

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"vns/internal/analysis"
	"vns/internal/telemetry"
)

// registrars maps the telemetry.Registry methods that register metric
// families to the argument index where label names start (-1: the
// method takes no variadic label list). RegisterFunc carries its labels
// as a []string literal in argument 3 instead.
var registrars = map[string]int{
	"Counter":      -1,
	"Gauge":        -1,
	"Histogram":    -1,
	"CounterVec":   2,
	"HistogramVec": 3,
	"RegisterFunc": -1,
}

// spanEmitters are the telemetry.Tracer methods whose literal layer and
// name arguments (indexes 1 and 2) form the span vocabulary. Spans are
// grouped and grepped by these strings exactly like metric families —
// the convergence layer's stage spans join its stage histograms in
// dashboards — so they carry the same snake_case contract.
var spanEmitters = map[string]bool{
	"Record": true,
	"Event":  true,
}

// Analyzer is the metricname check.
var Analyzer = &analysis.Analyzer{
	Name:      "metricname",
	Doc:       "enforce snake_case subsystem-prefixed metric and label names at telemetry registration sites",
	Directive: "metricname",
	// The telemetry package itself is exempt: it manipulates names as
	// data (validation, rendering, tests).
	Scope: func(path string) bool { return path != "vns/internal/telemetry" },
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "vns/internal/telemetry" {
				return true
			}
			if spanEmitters[fn.Name()] && len(call.Args) >= 3 {
				for _, arg := range call.Args[1:3] {
					if s, ok := stringLit(arg); ok && !telemetry.CheckLabel(s) {
						pass.Reportf(arg.Pos(), "span layer/name %q is not snake_case", s)
					}
				}
				return true
			}
			labelStart, registrar := registrars[fn.Name()]
			if !registrar || len(call.Args) == 0 {
				return true
			}
			if name, ok := stringLit(call.Args[0]); ok && !telemetry.CheckName(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q is not snake_case with a subsystem prefix (want the shape %q)",
					name, "fib_lookups_total")
			}
			var labels []ast.Expr
			if labelStart >= 0 && len(call.Args) > labelStart {
				labels = call.Args[labelStart:]
			}
			if fn.Name() == "RegisterFunc" && len(call.Args) > 3 {
				if lit, ok := call.Args[3].(*ast.CompositeLit); ok {
					labels = lit.Elts
				}
			}
			for _, arg := range labels {
				if l, ok := stringLit(arg); ok && !telemetry.CheckLabel(l) {
					pass.Reportf(arg.Pos(), "metric label %q is not snake_case", l)
				}
			}
			return true
		})
	}
	return nil
}

// stringLit unwraps a quoted string literal argument; names built at
// runtime return ok=false and are left to the registry's own checks.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
