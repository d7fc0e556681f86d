package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// TelemetryLabels keeps the metrics registry bounded and uniformly named.
// Two failure modes motivate it: a metric name outside the bix_* scheme
// fragments dashboards, and a label value computed from request data (a
// query string, a row count) creates one time series per distinct value —
// unbounded registry growth on a long-lived server.
//
// The rule: every Registry.Counter/Histogram call site must pass a
// constant metric name matching ^bix_[a-z0-9_]+$, and every label argument
// must be a Label literal whose fields are compile-time constants. Dynamic
// label needs are served by pre-registering one metric per known value
// (see bix_ops_total's per-kind counters in internal/telemetry). There is
// no exception: a per-attribute or per-build number belongs in a /debug
// page, not in a label.
//
// Names must also agree with the metric kind, Prometheus-style: a Counter
// is cumulative and must end in _total, while a Histogram is a
// distribution and must not carry the _total suffix.
var TelemetryLabels = &Analyzer{
	Name: "telemetry-labels",
	Doc:  "metric registrations need constant bix_* names and constant label values",
	Run:  runTelemetryLabels,
}

var metricNameRE = regexp.MustCompile(`^bix_[a-z0-9_]+$`)

func runTelemetryLabels(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Histogram":
			default:
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "telemetry" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !sig.Variadic() {
				return true
			}
			checkMetricCall(pass, call, sig, sel.Sel.Name)
			return true
		})
	}
}

func checkMetricCall(pass *Pass, call *ast.CallExpr, sig *types.Signature, kind string) {
	info := pass.Pkg.Info
	if len(call.Args) == 0 {
		return
	}
	// Metric name: first argument, must be a string constant in the scheme
	// with the suffix its kind demands.
	if tv, ok := info.Types[call.Args[0]]; ok {
		if tv.Value == nil {
			pass.Reportf(call.Args[0].Pos(), "metric name must be a compile-time constant")
		} else if tv.Value.Kind() == constant.String {
			name := constant.StringVal(tv.Value)
			if !metricNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q does not match the bix_* scheme (%s)",
					name, metricNameRE)
			} else if isTotal := strings.HasSuffix(name, "_total"); kind == "Counter" && !isTotal {
				pass.Reportf(call.Args[0].Pos(),
					"counter %q must end in _total (cumulative metrics carry the suffix)", name)
			} else if kind != "Counter" && isTotal {
				pass.Reportf(call.Args[0].Pos(),
					"%s %q must not end in _total (the suffix marks cumulative counters)", strings.ToLower(kind), name)
			}
		}
	}
	// Labels: the variadic tail. Spreading a slice hides the values.
	if call.Ellipsis.IsValid() {
		pass.Reportf(call.Ellipsis, "labels spread from a slice cannot be checked for constant values; pass Label literals")
		return
	}
	labelStart := sig.Params().Len() - 1
	if labelStart < 0 || labelStart > len(call.Args) {
		return
	}
	for _, arg := range call.Args[labelStart:] {
		lit, ok := arg.(*ast.CompositeLit)
		if !ok {
			pass.Reportf(arg.Pos(), "label must be a Label literal with constant fields, not a variable")
			continue
		}
		for _, elt := range lit.Elts {
			expr := elt
			field := ""
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				expr = kv.Value
				if id, ok := kv.Key.(*ast.Ident); ok {
					field = id.Name + " "
				}
			}
			if tv, ok := info.Types[expr]; ok && tv.Value == nil {
				pass.Reportf(expr.Pos(),
					"label %sfield is not a compile-time constant (unbounded label cardinality); pre-register one metric per value instead", field)
			}
		}
	}
}
