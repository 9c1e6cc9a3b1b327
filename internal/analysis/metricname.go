package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strings"
)

// MetricName keeps the metrics namespace coherent and panic-free: the
// obs registry panics at runtime on a duplicate series, and Prometheus
// scrapes silently mangle names outside the exposition charset. The
// analyzer checks every registration call on an obs.Registry (Counter,
// CounterFunc, Gauge, GaugeFunc, Histogram) and obs.WriteSeries:
//
//   - the metric name must be a compile-time constant string matching
//     ^gyo_[a-z0-9_]+$, and
//   - within one package, two registrations with identical constant
//     name + label arguments are flagged as a duplicate series (the
//     exact condition that panics the registry at startup).
//
// Registrations whose labels are computed (loops over label values)
// are exempt from the duplicate check but still name-checked.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "metric names are gyo_-prefixed compile-time constants and each constant series registers once per package",
	Run:  runMetricName,
}

var metricNameRE = regexp.MustCompile(`^gyo_[a-z0-9_]+$`)

// metricRegistrars maps registration method/function names to the
// index of the metric-name argument and the index where label
// arguments start.
var metricRegistrars = map[string]struct{ nameArg, labelStart int }{
	"Counter":     {0, 2},
	"CounterFunc": {0, 3},
	"Gauge":       {0, 2},
	"GaugeFunc":   {0, 3},
	"Histogram":   {0, 3},
	"WriteSeries": {1, 5},
}

func runMetricName(pass *Pass) error {
	seen := map[string]bool{} // constant series key -> registered
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			if fn, _ := methodOf(pass.Info, call); fn != nil && pkgNameOf(fn) == "obs" {
				name = fn.Name()
			} else if fn := calleeFunc(pass.Info, call); fn != nil && pkgNameOf(fn) == "obs" {
				name = fn.Name()
			} else {
				return true
			}
			spec, ok := metricRegistrars[name]
			if !ok || len(call.Args) <= spec.nameArg {
				return true
			}
			metric, isConst := constString(pass, call.Args[spec.nameArg])
			if !isConst {
				pass.Reportf(call.Args[spec.nameArg].Pos(),
					"metric name must be a compile-time constant string")
				return true
			}
			if !metricNameRE.MatchString(metric) {
				pass.Reportf(call.Args[spec.nameArg].Pos(),
					"metric name %q must match ^gyo_[a-z0-9_]+$", metric)
				return true
			}
			if name == "WriteSeries" {
				return true // ad-hoc exposition, not a registration
			}
			key, allConst := seriesKey(pass, metric, call, spec.labelStart)
			if !allConst {
				return true
			}
			if seen[key] {
				pass.Reportf(call.Args[spec.nameArg].Pos(),
					"duplicate registration of metric series %s (the obs registry panics on this at startup)",
					strings.ReplaceAll(key, "\x00", " "))
				return true
			}
			seen[key] = true
			return true
		})
	}
	return nil
}

// seriesKey builds the duplicate-detection key from the metric name
// and the constant label arguments; allConst is false when any label
// is computed at run time.
func seriesKey(pass *Pass, metric string, call *ast.CallExpr, labelStart int) (key string, allConst bool) {
	parts := []string{metric}
	for _, arg := range call.Args[labelStart:] {
		s, ok := constString(pass, arg)
		if !ok {
			return "", false
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, "\x00"), true
}

func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
