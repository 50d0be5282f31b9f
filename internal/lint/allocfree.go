package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// hotpathDirective marks a function or a for/range loop as part of the
// translation hot path: "//tlbvet:hotpath" in a function's doc comment
// or on the line directly above a loop statement.
const hotpathDirective = "tlbvet:hotpath"

// AllocFree forbids heap-escaping constructs inside regions annotated
// with //tlbvet:hotpath: each scheme's Translate, the TLB and page-table
// operations it calls, and the drive's batch loop. BENCH_pipeline.json's
// 0 allocs/access rests on those regions never touching the allocator.
// This is the syntactic half of the proof; cmd/allocgate checks the
// compiler's escape analysis over the same regions.
var AllocFree = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "forbid heap-escaping constructs in //tlbvet:hotpath regions\n\n" +
		"Functions (doc comment) or for/range loops (line above) annotated\n" +
		"//tlbvet:hotpath may not contain: closures capturing outer variables,\n" +
		"append (it may grow past cap), make/new, map or slice literals, fmt\n" +
		"calls, string concatenation, go statements, or conversions of concrete\n" +
		"values to interface types — every one of these can reach the heap on\n" +
		"the per-access path. Hoist setup above the annotated region instead.\n" +
		"cmd/allocgate verifies the same regions against `go build -gcflags=-m`.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runAllocFree,
}

func runAllocFree(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Directive positions per file line, so loop annotations (which the
	// AST does not attach to statements) can be matched by line number.
	type directive struct {
		pos  token.Pos
		used bool
	}
	directives := map[*token.File]map[int]*directive{}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil || strings.HasSuffix(tf.Name(), "_test.go") {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !isHotpathComment(c.Text) {
					continue
				}
				if directives[tf] == nil {
					directives[tf] = map[int]*directive{}
				}
				directives[tf][tf.Line(c.Pos())] = &directive{pos: c.Pos()}
			}
		}
	}
	// claim consumes the directive on the line above node start (or any
	// line of the doc comment group, for functions).
	claim := func(pos token.Pos, doc *ast.CommentGroup) bool {
		tf := pass.Fset.File(pos)
		lines := directives[tf]
		if lines == nil {
			return false
		}
		if doc != nil {
			found := false
			for _, c := range doc.List {
				if d := lines[tf.Line(c.Pos())]; d != nil && isHotpathComment(c.Text) {
					d.used, found = true, true
				}
			}
			if found {
				return true
			}
		}
		if d := lines[tf.Line(pos)-1]; d != nil {
			d.used = true
			return true
		}
		return false
	}

	var hotFuncs []*ast.FuncDecl // annotated functions, to skip nested loops
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass, fd.Pos()) {
			return
		}
		if claim(fd.Pos(), fd.Doc) {
			hotFuncs = append(hotFuncs, fd)
			checkHotRegion(pass, fd.Body, fd.Type)
		}
	})

	ins.WithStack([]ast.Node{(*ast.ForStmt)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || inTestFile(pass, n.Pos()) {
			return true
		}
		if !claim(n.Pos(), nil) {
			return true
		}
		// A loop inside an annotated function is already covered.
		encl := enclosingFunc(stack[:len(stack)-1])
		if fd, ok := encl.(*ast.FuncDecl); ok {
			for _, hot := range hotFuncs {
				if hot == fd {
					return true
				}
			}
		}
		var ft *ast.FuncType
		switch f := encl.(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		}
		checkHotRegion(pass, n, ft)
		return true
	})

	// Directives that matched neither a function nor a loop are dead
	// annotations — report them so the invariant they claim is real.
	for _, lines := range directives {
		for _, d := range lines {
			if !d.used {
				report(pass, d.pos,
					"misplaced //tlbvet:hotpath: the directive must be a function's doc comment or sit on the line above a for/range loop")
			}
		}
	}
	return nil, nil
}

func isHotpathComment(text string) bool {
	t := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	return t == hotpathDirective || strings.HasPrefix(t, hotpathDirective+" ")
}

// checkHotRegion walks one annotated region and reports every
// allocation-capable construct. enclosing is the type of the function
// the region belongs to (for return-statement conversions).
func checkHotRegion(pass *analysis.Pass, region ast.Node, enclosing *ast.FuncType) {
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if v := capturedVar(pass, n); v != nil {
				report(pass, n.Pos(),
					"closure captures %q on the hot path; captured closures escape to the heap — hoist it out of the //tlbvet:hotpath region or pass state explicitly", v.Name())
			} else {
				report(pass, n.Pos(),
					"function literal on the hot path; even a capture-free closure costs an indirect call — hoist it out of the //tlbvet:hotpath region")
			}
			return false
		case *ast.GoStmt:
			report(pass, n.Pos(), "go statement on the hot path allocates a goroutine per execution; move concurrency outside the //tlbvet:hotpath region")
			return false
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(pass, n.Pos(), "map literal allocates on the hot path; build the map outside the //tlbvet:hotpath region")
				case *types.Slice:
					report(pass, n.Pos(), "slice literal allocates on the hot path; preallocate it outside the //tlbvet:hotpath region")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n) && pass.TypesInfo.Types[n].Value == nil {
				report(pass, n.Pos(), "string concatenation allocates on the hot path; precompute the string or use fixed buffers outside the //tlbvet:hotpath region")
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, n)
		case *ast.ValueSpec:
			checkHotValueSpec(pass, n)
		case *ast.ReturnStmt:
			checkHotReturn(pass, n, enclosing)
		case *ast.CallExpr:
			checkHotCall(pass, n)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Explicit conversions: T(x) with T an interface type.
	if tv, ok := pass.TypesInfo.Types[astUnparen(call.Fun)]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) {
			report(pass, call.Pos(),
				"conversion to interface %s allocates on the hot path; keep concrete types inside the //tlbvet:hotpath region", tv.Type.String())
		}
		return
	}
	if id, ok := astUnparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(pass, call.Pos(),
					"append may grow past cap and allocate on the hot path; preallocate outside the //tlbvet:hotpath region and assign by index")
			case "make", "new":
				report(pass, call.Pos(),
					"%s allocates on the hot path; hoist the allocation out of the //tlbvet:hotpath region", b.Name())
			}
			return
		}
	}
	fn, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(pass, call.Pos(),
			"fmt.%s allocates (boxing + formatting) on the hot path; format outside the //tlbvet:hotpath region", fn.Name())
		return
	}
	// Implicit conversions: concrete arguments passed to interface
	// parameters are boxed.
	sigT := pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		reportIfaceConversion(pass, arg, pt)
	}
}

// paramTypeAt resolves the parameter type for argument i, unrolling the
// variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func checkHotAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if t := pass.TypesInfo.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				report(pass, as.Pos(), "string concatenation allocates on the hot path; precompute the string outside the //tlbvet:hotpath region")
				return
			}
		}
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := pass.TypesInfo.TypeOf(as.Lhs[i])
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		reportIfaceConversion(pass, as.Rhs[i], lt)
	}
}

func checkHotValueSpec(pass *analysis.Pass, vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	lt := pass.TypesInfo.TypeOf(vs.Type)
	if lt == nil || !types.IsInterface(lt.Underlying()) {
		return
	}
	for _, v := range vs.Values {
		reportIfaceConversion(pass, v, lt)
	}
}

func checkHotReturn(pass *analysis.Pass, ret *ast.ReturnStmt, ft *ast.FuncType) {
	if ft == nil || ft.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, f := range ft.Results.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // multi-value call return; out of scope
	}
	for i, r := range ret.Results {
		rt := resultTypes[i]
		if rt == nil || !types.IsInterface(rt.Underlying()) {
			continue
		}
		reportIfaceConversion(pass, r, rt)
	}
}

// reportIfaceConversion flags expr when assigning it to iface boxes a
// concrete value. Nil literals and values already of interface type
// convert for free.
func reportIfaceConversion(pass *analysis.Pass, expr ast.Expr, iface types.Type) {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil || types.IsInterface(t.Underlying()) {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	report(pass, expr.Pos(),
		"%s is boxed into interface %s on the hot path; keep the concrete type inside the //tlbvet:hotpath region", t.String(), iface.String())
}

// capturedVar returns a variable the literal captures from an enclosing
// function, or nil. Package-level objects and the literal's own
// parameters/locals are not captures.
func capturedVar(pass *analysis.Pass, fl *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level; referenced directly, not captured
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captured = v
		}
		return true
	})
	return captured
}

func isStringExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func astUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
