package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// Determinism forbids nondeterminism sources in simulation packages:
// wall-clock reads, the global math/rand generator, crypto/rand, and
// map iteration whose order leaks into results or output.
//
// Scope is discovered from the module path (see scope.go): every
// package in the module is simulation code unless a reviewed opt-out
// prefix excludes it, so new internal/* packages are covered the day
// they are created instead of when someone remembers to list them.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock, global RNG, and order-dependent map iteration in simulation packages\n\n" +
		"Simulation results must be byte-identical across serial, parallel, and\n" +
		"server runs (the sweep cache and every golden file depend on it). This\n" +
		"pass flags time.Now/Since/Until, package-level math/rand functions\n" +
		"(seed explicitly and pass a *rand.Rand instead), any crypto/rand use,\n" +
		"and `for k := range m` loops whose body appends to a slice that is\n" +
		"never sorted, sends on a channel, concatenates strings, or writes\n" +
		"output. Collect keys and sort them first (see internal/report's\n" +
		"sortedKeys helper). Module packages are in scope by discovery;\n" +
		"-optout adjusts the reviewed exclusion list.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDeterminism,
}

var determinismOptOut string

func init() {
	Determinism.Flags.StringVar(&determinismOptOut, "optout", defaultDeterminismOptOut,
		"comma-separated module-relative path prefixes excluded from the simulation scope")
}

func isSimPackage(path string) bool {
	return inScope(path, determinismOptOut)
}

// randConstructors are the package-level math/rand functions that build
// explicitly seeded generators; they are the sanctioned alternative to
// the global source and must stay legal.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !isSimPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || inTestFile(pass, n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondeterministicCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, enclosingFunc(stack))
		}
		return true
	})
	return nil, nil
}

func checkNondeterministicCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := typeutil.Callee(pass.TypesInfo, call)
	f, ok := fn.(*types.Func)
	if !ok || f.Pkg() == nil {
		return
	}
	sig, _ := f.Type().(*types.Signature)
	pkgLevel := sig != nil && sig.Recv() == nil
	switch f.Pkg().Path() {
	case "time":
		if pkgLevel {
			switch f.Name() {
			case "Now", "Since", "Until":
				report(pass, call.Pos(),
					"time.%s reads the wall clock in a simulation package; derive values from the config or seed instead",
					f.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		if pkgLevel && !randConstructors[f.Name()] {
			report(pass, call.Pos(),
				"%s.%s uses the global RNG in a simulation package; construct rand.New(rand.NewSource(seed)) from an explicit seed and pass it down",
				f.Pkg().Path(), f.Name())
		}
	case "crypto/rand":
		report(pass, call.Pos(),
			"crypto/rand.%s is nondeterministic; simulation packages must derive randomness from an explicit seed", f.Name())
	}
}

// checkMapRange flags `for k := range m` (m a map) when the loop body
// has an order-sensitive effect. Appending to a slice is absolved when
// the same slice is later passed to sort/slices sorting in the
// enclosing function — that is exactly the collect-and-sort idiom the
// fix should use.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, fn ast.Node) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	var sinks []string
	var appended []*types.Var // slices appended to inside the loop

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures run elsewhere; out of scope
		case *ast.SendStmt:
			sinks = append(sinks, "a channel send")
		case *ast.AssignStmt:
			if v := appendTarget(pass, n); v != nil {
				appended = append(appended, v)
			} else if isStringConcat(pass, n) {
				sinks = append(sinks, "string concatenation")
			}
		case *ast.CallExpr:
			if s := outputCallSink(pass, n); s != "" {
				sinks = append(sinks, s)
			}
		}
		return true
	})

	for _, v := range appended {
		if !sortedLater(pass, fn, v) {
			sinks = append(sinks, "an append to "+v.Name()+" that is never sorted")
		}
	}
	if len(sinks) == 0 {
		return
	}
	report(pass, rng.Pos(),
		"map iteration order is random but the loop body performs %s; collect the keys, sort them, then iterate",
		sinks[0])
}

// appendTarget returns the variable v for statements `v = append(v, ...)`.
func appendTarget(pass *analysis.Pass, as *ast.AssignStmt) *types.Var {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.ObjectOf(lhs).(*types.Var)
	return v
}

func isStringConcat(pass *analysis.Pass, as *ast.AssignStmt) bool {
	if as.Tok.String() != "+=" || len(as.Lhs) != 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// outputCallSink classifies calls that make iteration order observable:
// the fmt print family and Write*/Encode methods (io.Writer,
// strings.Builder, json.Encoder, ...).
func outputCallSink(pass *analysis.Pass, call *ast.CallExpr) string {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.Contains(fn.Name(), "rint") {
		return "formatted output (fmt." + fn.Name() + ")"
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if strings.HasPrefix(fn.Name(), "Write") || fn.Name() == "Encode" {
			return "a " + fn.Name() + " call"
		}
	}
	return ""
}

// sortedLater reports whether v is passed to a sort/slices sorting
// function anywhere in the enclosing function.
func sortedLater(pass *analysis.Pass, fn ast.Node, v *types.Var) bool {
	if fn == nil {
		return false
	}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	if body == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		f, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		switch f.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if !strings.Contains(f.FullName(), "Sort") && !isSortingHelper(f.Name()) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

func isSortingHelper(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Stable", "Slice", "SliceStable":
		return true
	}
	return false
}
