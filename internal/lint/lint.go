// Package lint holds tlbvet's custom go/analysis passes. They encode
// the project invariants that equality tests alone cannot protect:
//
//   - determinism: simulation packages must produce byte-identical
//     results on every run — no wall-clock, no global RNG, no
//     order-dependent map iteration (the paper's evaluation, and every
//     sweep-cache hit, depends on it).
//   - ctxflow: code that receives a context.Context must propagate it;
//     library code must not mint detached contexts.
//   - locksafe: no blocking operations (channel sends, waits, sleeps)
//     while a sync.Mutex/RWMutex is held, and no lock-by-value
//     receivers — aimed at internal/server's jobstore and queue.
//   - closecheck: Close() errors must be checked (deferred Close is
//     exempt); write errors often surface only at close time.
//   - noprint: library packages never print to stdout; output goes
//     through injected io.Writers, return values, or log/slog.
//   - allocfree: //tlbvet:hotpath-annotated functions and loops contain
//     no heap-escaping constructs (closures, append, map/slice
//     literals, fmt, string concat, interface boxing); the batched
//     translation pipeline's 0 allocs/access is an invariant, not a
//     benchmark number. cmd/allocgate verifies the same regions
//     against the compiler's escape analysis.
//   - lifecycle: every go statement in library packages has a provable
//     shutdown path (ctx.Done select, WaitGroup pairing, or a
//     close-signaled channel).
//   - metriclint: Prometheus names are valid, each family is # TYPE-
//     registered exactly once per package, and label values are
//     provably bounded (no raw job IDs or tenant strings).
//
// Determinism and ctxflow discover their scope from the module path
// (scope.go): new internal/* packages are covered automatically, and
// exclusion is an explicit, reviewed opt-out.
//
// Every diagnostic can be suppressed, with a reason, by a
// "//tlbvet:ignore <analyzer> <reason>" comment on the flagged line or
// the line above it (see DESIGN.md "Project invariants & static
// analysis").
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// All returns every tlbvet analyzer, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		CtxFlow,
		LockSafe,
		CloseCheck,
		NoPrint,
		AllocFree,
		Lifecycle,
		MetricLint,
	}
}

// inTestFile reports whether pos lies in a _test.go file. Most passes
// skip test files: tests may legitimately time things, print, or lean
// on randomness for fuzzing.
func inTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// report emits a diagnostic unless a "//tlbvet:ignore" comment on the
// same line (or the line directly above) names the analyzer.
func report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if suppressed(pass, pos, pass.Analyzer.Name) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// suppressed implements the escape hatch for false positives:
//
//	//tlbvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed at the end of the flagged line or on its own line directly
// above. The analyzer list may be "all". A reason is not enforced
// syntactically but is expected by review convention.
func suppressed(pass *analysis.Pass, pos token.Pos, analyzer string) bool {
	tf := pass.Fset.File(pos)
	if tf == nil {
		return false
	}
	line := tf.Line(pos)
	for _, f := range pass.Files {
		if pass.Fset.File(f.Pos()) != tf {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				cl := tf.Line(c.Pos())
				if cl != line && cl != line-1 {
					continue
				}
				if ignoreDirectiveMatches(c.Text, analyzer) {
					return true
				}
			}
		}
	}
	return false
}

func ignoreDirectiveMatches(comment, analyzer string) bool {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	const prefix = "tlbvet:ignore"
	if !strings.HasPrefix(text, prefix) {
		return false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if rest == "" {
		return true // bare "//tlbvet:ignore" silences everything
	}
	names := strings.FieldsFunc(strings.Fields(rest)[0], func(r rune) bool { return r == ',' })
	for _, n := range names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// enclosingFunc walks an inspector stack (outermost first) and returns
// the innermost function declaration or literal containing the leaf.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
