package analysis

import (
	"go/ast"
	"go/types"
)

// NoAlloc rejects per-call allocation constructs inside functions annotated
// `//rtmw:noalloc` — the static complement to the tier-1 AllocsPerRun pins
// at 0 on the des event loop (TestReserveAllocatesOnce),
// Ledger.Admissible/TestAndAdd (TestAdmissibleManyGroups,
// TestShardedAdmitWithdrawAllocFree) and the autopilot ingest/tick path
// (TestAutopilotHotPathsAllocFree), and to BenchmarkTECachedSubmit on the
// TE cached-submit path.
//
// Flagged: closure literals, calls into package fmt, make/new,
// &composite-literal, slice/map composite literals, string concatenation,
// string<->[]byte conversions, interface boxing (a concrete non-pointer
// value passed where an interface is expected), and unbounded append.
// Append is allowed in exactly the two amortized scratch-reuse shapes the
// hot paths use: `x = append(x, ...)` (including `x = append(x[:0], ...)`)
// where the result lands back in the same variable or field and x outlives
// the call (a field, a package variable, a parameter), and
// `return append(p, ...)` where p is a parameter (caller-owned buffer).
// A slice declared in the function body (say, sliced from a local array)
// starts from its declared capacity on every call, so growing it is a
// per-call allocation, not an amortized one, and is flagged.
// One-time lazy scratch growth must carry an explicit
// `//rtmw:ignore noalloc <reason>`.
//
// The check is intraprocedural: callees are vetted by their own annotation
// (or by an AllocsPerRun test), not transitively.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "reject per-call allocation constructs (closures, fmt, boxing, " +
		"unbounded append, make/new, &composite, string concat) in " +
		"//rtmw:noalloc functions",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !FuncDirective(fn, "noalloc") {
				continue
			}
			checkNoAlloc(pass, fn)
		}
	}
	return nil
}

func checkNoAlloc(pass *Pass, fn *ast.FuncDecl) {
	appends := classifyAppends(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in noalloc function (captures escape to the heap)")
			return false // its body is the closure's problem, not this path's
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s literal allocates its backing store", kindName(t))
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite-literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := pass.Info.TypeOf(n); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(pass, n, appends)
		}
		return true
	})
}

func checkNoAllocCall(pass *Pass, call *ast.CallExpr, appends map[*ast.CallExpr]appendShape) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	switch {
	case tv.IsType(): // conversion
		checkConversion(pass, call, tv.Type)
	case tv.IsBuiltin():
		name := builtinName(call.Fun)
		switch name {
		case "append":
			switch appends[call] {
			case appendLocal:
				pass.Reportf(call.Pos(),
					"append to %s, declared in the function body, re-grows on every call (want a field, package variable or parameter that outlives the call)",
					exprText(sliceBase(call.Args[0])))
			case appendUnbounded:
				pass.Reportf(call.Pos(),
					"unbounded append: result does not land back in its source (want `x = append(x, ...)` or `return append(param, ...)`)")
			}
		case "make":
			pass.Reportf(call.Pos(), "make allocates; one-time lazy growth needs //rtmw:ignore noalloc <reason>")
		case "new":
			pass.Reportf(call.Pos(), "new allocates; one-time lazy growth needs //rtmw:ignore noalloc <reason>")
		}
	default:
		if callsPackage(pass, call, "fmt") {
			pass.Reportf(call.Pos(), "call into package fmt allocates (and boxes every operand)")
			return
		}
		checkBoxing(pass, call)
	}
}

// checkConversion flags conversions that copy memory or box.
func checkConversion(pass *Pass, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := pass.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch target.Underlying().(type) {
	case *types.Interface:
		if boxes(src) {
			pass.Reportf(call.Pos(), "conversion of %s to interface boxes on the heap", src)
		}
	case *types.Slice:
		if isString(src) {
			pass.Reportf(call.Pos(), "[]byte(string) conversion copies and allocates")
		}
	case *types.Basic:
		if isString(target) && !isString(src) {
			if _, ok := src.Underlying().(*types.Slice); ok {
				pass.Reportf(call.Pos(), "string([]byte) conversion copies and allocates")
			}
		}
	}
}

// checkBoxing flags concrete non-pointer-shaped arguments passed where the
// callee expects an interface: the conversion materializes the value on the
// heap.
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	sig, ok := pass.Info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		pass.Reportf(call.Pos(), "variadic call allocates its argument slice")
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... forwards the slice, no per-element boxing
			}
			param = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			param = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		if _, isTypeParam := param.(*types.TypeParam); isTypeParam {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || !boxes(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "interface boxing: %s passed as %s allocates", at, param)
	}
}

// boxes reports whether converting a value of type t to an interface
// allocates: concrete non-pointer-shaped values do; pointers, channels,
// maps, funcs, unsafe pointers, and values already behind an interface fit
// the interface word.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil && u.Kind() != types.Invalid
	default:
		return true
	}
}

// appendShape classifies an append call by where its result goes.
type appendShape int

const (
	// appendUnbounded is every append not recognized below: the result does
	// not land back in its source.
	appendUnbounded appendShape = iota
	// appendAmortized is one of the two sanctioned shapes (see the analyzer
	// doc).
	appendAmortized
	// appendLocal is `x = append(x, ...)` on a variable declared in the
	// function body.
	appendLocal
)

// classifyAppends finds the append calls of fn in a recognized shape; calls
// absent from the result are appendUnbounded.
func classifyAppends(pass *Pass, fn *ast.FuncDecl) map[*ast.CallExpr]appendShape {
	shapes := make(map[*ast.CallExpr]appendShape)
	params := make(map[types.Object]bool)
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := appendCall(pass, rhs)
				if !ok || len(call.Args) == 0 {
					continue
				}
				base := sliceBase(call.Args[0])
				if n.Tok.String() != "=" || exprText(n.Lhs[i]) != exprText(base) {
					continue
				}
				if declaredInBody(pass, fn, base) {
					shapes[call] = appendLocal
				} else {
					shapes[call] = appendAmortized
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				call, ok := appendCall(pass, res)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if ident, ok := sliceBase(call.Args[0]).(*ast.Ident); ok && params[pass.Info.Uses[ident]] {
					shapes[call] = appendAmortized
				}
			}
		}
		return true
	})
	return shapes
}

// declaredInBody reports whether e is a plain variable declared inside fn's
// body: neither a parameter, a named result or the receiver (all declared in
// the signature), nor a package variable, nor a field reached through a
// selector.
func declaredInBody(pass *Pass, fn *ast.FuncDecl, e ast.Expr) bool {
	ident, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pass.Info.Uses[ident].(*types.Var)
	return ok && fn.Body.Pos() <= v.Pos() && v.Pos() < fn.Body.End()
}

func appendCall(pass *Pass, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if tv, ok := pass.Info.Types[call.Fun]; !ok || !tv.IsBuiltin() || builtinName(call.Fun) != "append" {
		return nil, false
	}
	return call, true
}

// sliceBase strips slicing and parens: base of `x[:0]` is `x`.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.SliceExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return e
		}
	}
}

func exprText(e ast.Expr) string { return types.ExprString(e) }

func builtinName(fun ast.Expr) string {
	if ident, ok := ast.Unparen(fun).(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}

// callsPackage reports whether call invokes a function of the named
// standard-library package.
func callsPackage(pass *Pass, call *ast.CallExpr, pkgPath string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[ident].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
