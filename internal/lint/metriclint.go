package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// MetricLint vets the hand-rolled Prometheus text exposition in metric
// writers: names must be valid, each family registered (# TYPE) exactly
// once per package, samples must belong to a registered family, and —
// the cardinality rule — a label value may not come from unbounded
// input. A label fed by job IDs or tenant strings mints a new time
// series per value and grows the scrape without bound.
var MetricLint = &analysis.Analyzer{
	Name: "metriclint",
	Doc: "vet Prometheus text exposition: metric names, single registration, bounded label cardinality\n\n" +
		"Applies to fmt.Fprint* calls whose format literal is a '# TYPE'/'# HELP'\n" +
		"line or a sample line (an underscore-containing metric name, optional\n" +
		"{labels}, then a value verb). Names and label names must match the\n" +
		"Prometheus grammar; a family may be # TYPE-registered once per package;\n" +
		"samples must match a registered family (histogram/summary suffixes\n" +
		"included). Label values must be provably bounded: literals, constants,\n" +
		"numeric verbs, or named string types (enum idiom, e.g. JobState). A\n" +
		"plain-string label value is allowed only when its label name is on the\n" +
		"reviewed -bounded-labels list — raw IDs mint one time series per value\n" +
		"and grow the scrape without bound. Package main and _test.go files are\n" +
		"exempt.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runMetricLint,
}

// defaultBoundedLabels are label names reviewed as bounded even though
// their values are plain strings:
//
//   - route: HTTP route patterns — a closed set registered at startup
//     (the server records patterns, never raw paths).
//   - le: histogram bucket bounds from a fixed bucket table.
//   - tenant: names from the static keyfile loaded at startup — the
//     admission layer authenticates before any labeled counter is
//     touched, so unknown keys can never mint a series (see
//     internal/tenant's cardinality contract).
const defaultBoundedLabels = "route,le,tenant"

var metricBoundedLabels string

func init() {
	MetricLint.Flags.StringVar(&metricBoundedLabels, "bounded-labels", defaultBoundedLabels,
		"comma-separated label names reviewed as bounded despite plain-string values")
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func runMetricLint(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	families := map[string]metricFamily{}
	type sampleRef struct {
		name string
		pos  token.Pos
	}
	var samples []sampleRef

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if inTestFile(pass, call.Pos()) {
			return
		}
		format, ok := fprintFormat(pass, call)
		if !ok {
			return
		}
		if name, kind, ok := parseTypeLine(format); ok {
			if !metricNameRe.MatchString(name) {
				report(pass, call.Pos(), "invalid Prometheus metric name %q in # TYPE line", name)
				return
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				report(pass, call.Pos(), "invalid Prometheus metric type %q for %s (want counter/gauge/histogram/summary/untyped)", kind, name)
			}
			if prev, dup := families[name]; dup {
				report(pass, call.Pos(), "metric %s is # TYPE-registered more than once in this package (previous registration at %s)",
					name, pass.Fset.Position(prev.pos))
				return
			}
			families[name] = metricFamily{kind: kind, pos: call.Pos()}
			return
		}
		if name, ok := parseHelpLine(format); ok {
			if !metricNameRe.MatchString(name) {
				report(pass, call.Pos(), "invalid Prometheus metric name %q in # HELP line", name)
			}
			return
		}
		s, ok := parseSampleLine(format)
		if !ok {
			return
		}
		if !metricNameRe.MatchString(s.name) {
			report(pass, call.Pos(), "invalid Prometheus metric name %q in sample line", s.name)
			return
		}
		samples = append(samples, sampleRef{name: s.name, pos: call.Pos()})
		for _, l := range s.labels {
			if !labelNameRe.MatchString(l.name) {
				report(pass, call.Pos(), "invalid Prometheus label name %q on metric %s", l.name, s.name)
				continue
			}
			if l.verbIndex < 0 {
				continue // literal label value; bounded by construction
			}
			arg := verbArg(call, l.verbIndex)
			if arg == nil {
				continue
			}
			if boundedLabelValue(pass, arg) || boundedLabelName(l.name) {
				continue
			}
			report(pass, call.Pos(),
				"label %q on metric %s takes an unbounded plain-string value; every distinct value mints a new time series — use a bounded enum type, aggregate the metric, or add the label to metriclint's reviewed -bounded-labels list",
				l.name, s.name)
		}
	})

	// Samples must belong to a family registered in this package; a
	// sample without a # TYPE renders as untyped and hides from tooling.
	if len(families) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i].pos < samples[j].pos })
		for _, s := range samples {
			if !sampleMatchesFamily(s.name, families) {
				report(pass, s.pos, "sample for %s has no # TYPE registration in this package", s.name)
			}
		}
	}
	return nil, nil
}

// metricFamily is one # TYPE registration.
type metricFamily struct {
	kind string
	pos  token.Pos
}

func sampleMatchesFamily(name string, families map[string]metricFamily) bool {
	if _, ok := families[name]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		if f, ok := families[base]; ok && (f.kind == "histogram" || f.kind == "summary") {
			return true
		}
	}
	return false
}

// fprintFormat extracts the string literal a fmt.Fprint/Fprintf/Fprintln
// call writes, which is where metric lines are born in this codebase.
func fprintFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return "", false
	}
	switch fn.Name() {
	case "Fprintf", "Fprintln", "Fprint":
	default:
		return "", false
	}
	if len(call.Args) < 2 {
		return "", false
	}
	lit, ok := astUnparen(call.Args[1]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func parseTypeLine(s string) (name, kind string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSpace(s), "# TYPE ")
	if !found {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

func parseHelpLine(s string) (name string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSpace(s), "# HELP ")
	if !found {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

type sampleLabel struct {
	name      string
	verbIndex int // ordinal among the format's verbs; -1 for a literal value
}

type sampleLine struct {
	name   string
	labels []sampleLabel
}

// parseSampleLine recognizes `name{label=value,...} value\n` and
// `name value\n` shapes. The heuristic is deliberately conservative:
// the name must contain an underscore (every project metric does;
// prose like "event: %s" does not) and the value must be a verb or a
// number, so ordinary Fprintf output never matches.
func parseSampleLine(s string) (sampleLine, bool) {
	var out sampleLine
	line := strings.TrimSuffix(s, "\n")
	if strings.Contains(line, "\n") || strings.HasPrefix(line, "#") {
		return out, false
	}
	i := 0
	for i < len(line) && isMetricNameChar(line[i], i == 0) {
		i++
	}
	name := line[:i]
	if name == "" || !strings.Contains(name, "_") {
		return out, false
	}
	out.name = name
	rest := line[i:]
	verbsBefore := countVerbs(name)
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return out, false
		}
		labelBlock := rest[1:end]
		rest = rest[end+1:]
		for _, part := range splitLabels(labelBlock) {
			eq := strings.Index(part, "=")
			if eq < 0 {
				return out, false
			}
			lname := strings.TrimSpace(part[:eq])
			lval := strings.TrimSpace(part[eq+1:])
			verbs := countVerbs(part[:eq])
			verbsBefore += verbs
			vi := -1
			if n := countVerbs(lval); n > 0 {
				vi = verbsBefore
				verbsBefore += n
			}
			out.labels = append(out.labels, sampleLabel{name: lname, verbIndex: vi})
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return out, false
	}
	val := strings.TrimSpace(rest)
	if val == "" {
		return out, false
	}
	if strings.HasPrefix(val, "%") && countVerbs(val) == 1 {
		return out, true
	}
	if _, err := strconv.ParseFloat(strings.TrimPrefix(val, "+"), 64); err == nil {
		return out, true
	}
	return out, false
}

func isMetricNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// splitLabels splits a label block on commas outside quotes.
func splitLabels(block string) []string {
	var parts []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, block[start:i])
				start = i + 1
			}
		}
	}
	if start < len(block) {
		parts = append(parts, block[start:])
	}
	return parts
}

// countVerbs counts format verbs (%d, %q, ...) in s, ignoring %%.
func countVerbs(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		if i+1 < len(s) && s[i+1] == '%' {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && strings.ContainsRune("+-# .0123456789[]*", rune(s[j])) {
			j++
		}
		if j < len(s) {
			n++
			i = j
		}
	}
	return n
}

// verbArg maps a verb ordinal to the matching variadic argument of a
// Fprintf call (args[0] is the writer, args[1] the format).
func verbArg(call *ast.CallExpr, verbIndex int) ast.Expr {
	i := 2 + verbIndex
	if i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// boundedLabelValue reports whether the expression feeding a label verb
// is provably bounded: a constant, a numeric, or a named (enum-idiom)
// string type. Plain strings are unbounded unless the label name is on
// the reviewed list.
func boundedLabelValue(pass *analysis.Pass, arg ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok {
		return false
	}
	if tv.Value != nil {
		return true // constant
	}
	t := tv.Type
	if b, ok := t.Underlying().(*types.Basic); ok {
		if b.Info()&(types.IsInteger|types.IsFloat|types.IsBoolean) != 0 {
			return true
		}
		if b.Info()&types.IsString != 0 {
			// Named string types are the enum idiom (JobState,
			// LeaseStatus): a closed set by construction.
			if _, named := t.(*types.Named); named {
				return true
			}
		}
	}
	return false
}

func boundedLabelName(name string) bool {
	for _, l := range strings.Split(metricBoundedLabels, ",") {
		if strings.TrimSpace(l) == name {
			return true
		}
	}
	return false
}
