package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// CtxFlow enforces context propagation in library packages: a function
// that receives a context.Context must pass it on rather than minting
// context.Background()/context.TODO(), and library code without a
// context parameter must not create detached contexts either (thread
// one from the caller). Package main and _test.go files are exempt —
// that is where root contexts legitimately originate — and scope is
// otherwise discovered from the module path (scope.go), so new
// library packages are covered automatically.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "require context.Context propagation; flag context.Background/TODO in library code\n\n" +
		"Timeouts, cancellation (server drain, Ctrl-C), and per-request deadlines\n" +
		"only work when every layer threads the caller's context. Creating\n" +
		"context.Background() mid-stack silently detaches the work from its\n" +
		"parent. The one sanctioned form is nil-normalization of the function's\n" +
		"own parameter: `if ctx == nil { ctx = context.Background() }`.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) (any, error) {
	// Package main is the cmd/ opt-out: root contexts originate there.
	// Everything else in the module is library code and in scope.
	if pass.Pkg.Name() == "main" || !inScope(pass.Pkg.Path(), "") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || inTestFile(pass, n.Pos()) {
			return true
		}
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() != "Background" && fn.Name() != "TODO" {
			return true
		}

		ctxParams := contextParams(pass, enclosingFunc(stack))
		if len(ctxParams) > 0 && normalizesParam(pass, stack, ctxParams) {
			return true // `ctx = context.Background()` nil-guard on own parameter
		}
		switch {
		case fn.Name() == "TODO":
			report(pass, call.Pos(),
				"context.TODO marks unfinished context plumbing; thread a real context.Context from the caller")
		case len(ctxParams) > 0:
			report(pass, call.Pos(),
				"this function already receives a context.Context (%s); propagate it instead of context.Background()",
				ctxParams[0].Name())
		default:
			report(pass, call.Pos(),
				"context.Background() detaches this work from any caller; accept a context.Context parameter and thread it through")
		}
		return true
	})
	return nil, nil
}

// contextParams returns the context.Context parameters of fn (a
// FuncDecl or FuncLit), in declaration order.
func contextParams(pass *analysis.Pass, fn ast.Node) []*types.Var {
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	default:
		return nil
	}
	var out []*types.Var
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		if !isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// normalizesParam reports whether the Background()/TODO() call (leaf of
// stack) is the right-hand side of an assignment back onto one of the
// function's own context parameters — the nil-tolerant API idiom.
func normalizesParam(pass *analysis.Pass, stack []ast.Node, params []*types.Var) bool {
	if len(stack) < 2 {
		return false
	}
	as, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	for _, p := range params {
		if obj == p {
			return true
		}
	}
	return false
}
