package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath turns the AllocsPerRun regression tests into prevention:
// any function annotated //mediavet:hotpath is checked for the
// allocation-causing constructs those tests exist to catch. The
// annotation is also a contract edge — a hot function may only call
// module functions that are themselves annotated, so the zero-alloc
// property is closed under the static call graph.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid allocation-causing constructs (closures, interface " +
		"conversions, fmt, string concat, unsized append, calls to " +
		"unannotated module functions) in //mediavet:hotpath functions",
	Run: runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathDecl(fd) {
				continue
			}
			h := &hotChecker{pass: pass, fn: fd}
			h.prescan(fd.Body)
			h.check(fd.Body)
		}
	}
	return nil
}

type hotChecker struct {
	pass *Pass
	fn   *ast.FuncDecl
	// presized holds locals created with 3-arg make: appending to them
	// is the sanctioned pattern because capacity was budgeted up front.
	presized map[types.Object]bool
	// callFuns marks expressions in call-function position, so method
	// calls are distinguished from allocation-causing method values.
	callFuns map[ast.Expr]bool
	// panicRanges are the source extents of panic(...) arguments —
	// cold by definition, so fmt et al. are tolerated inside them.
	panicRanges [][2]token.Pos
}

func (h *hotChecker) prescan(body *ast.BlockStmt) {
	h.presized = map[types.Object]bool{}
	h.callFuns = map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			h.callFuns[ast.Unparen(x.Fun)] = true
			if builtinName(h.pass.Info, x) == "panic" {
				h.panicRanges = append(h.panicRanges, [2]token.Pos{x.Pos(), x.End()})
			}
		case *ast.AssignStmt: // 3-arg make assignments
			for i, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(x.Lhs) || len(call.Args) != 3 || builtinName(h.pass.Info, call) != "make" {
					continue
				}
				if lhs, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
					if obj := h.pass.Info.Defs[lhs]; obj != nil {
						h.presized[obj] = true
					} else if obj := h.pass.Info.Uses[lhs]; obj != nil {
						h.presized[obj] = true
					}
				}
			}
		}
		return true
	})
}

func (h *hotChecker) inPanicArg(pos token.Pos) bool {
	for _, r := range h.panicRanges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func (h *hotChecker) check(body *ast.BlockStmt) {
	pass := h.pass
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if caps := capturedVars(pass, h.fn, x); len(caps) > 0 {
				pass.Reportf(x.Pos(),
					"closure captures %s by reference and escapes to the heap; hoist the state or pass it as a parameter", caps[0])
			}
			return true // closure body runs on the hot path too
		case *ast.CallExpr:
			h.checkCall(x)
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i < len(x.Lhs) {
					h.checkIfaceConv(rhs, pass.Info.TypeOf(x.Lhs[i]))
				}
			}
			if x.Tok == token.ADD_ASSIGN && isStringType(pass.Info.TypeOf(x.Lhs[0])) {
				pass.Reportf(x.Pos(), "string += allocates a new string per call; use a pre-sized []byte or strconv.Append*")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pass.Info.TypeOf(x)) &&
				!isConstExpr(pass, x) && !h.inPanicArg(x.Pos()) {
				pass.Reportf(x.Pos(), "string concatenation allocates; use a pre-sized []byte or strconv.Append*")
			}
		case *ast.ReturnStmt:
			h.checkReturn(x)
		case *ast.SelectorExpr:
			// A method value (passing x.Method as a callback)
			// allocates a bound closure each time.
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.MethodVal && !h.callFuns[x] {
				pass.Reportf(x.Pos(),
					"method value %s allocates a bound closure per use; restructure or hoist it", x.Sel.Name)
			}
		}
		return true
	})
}

func (h *hotChecker) checkCall(call *ast.CallExpr) {
	pass := h.pass
	if b := builtinName(pass.Info, call); b != "" {
		if b == "append" {
			h.checkAppend(call)
		}
		return // other builtins (len, cap, panic, copy, ...) are fine
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion T(x); interface targets surface via assignment/return checks
	}

	fn := staticCallee(pass.Info, call)
	if fn == nil {
		return // func value or interface dispatch: dynamic, assumed budgeted
	}
	pkgPath := calleePkgPath(fn)
	switch {
	case pkgPath == "fmt":
		if !h.inPanicArg(call.Pos()) {
			pass.Reportf(call.Pos(),
				"fmt.%s formats through reflection and allocates; use strconv or a pre-rendered string", fn.Name())
		}
	case pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/"):
		if !pass.Facts.Hotpath[FuncKey(fn)] {
			pass.Reportf(call.Pos(),
				"call to %s which is not //mediavet:hotpath-annotated; annotate it (and keep it alloc-free) or move the call off the hot path", FuncKey(fn))
		}
	}

	// Interface-typed parameters force boxing of concrete args.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos && params.Len() > 0:
			if sl, isSl := params.At(params.Len() - 1).Type().(*types.Slice); isSl {
				pt = sl.Elem()
			}
		case params.Len() > 0:
			pt = params.At(params.Len() - 1).Type()
		}
		h.checkIfaceConv(arg, pt)
	}
}

// checkAppend flags append whose destination is a local slice not
// created with 3-arg make: growth reallocates on the hot path.
// Parameters, struct fields, and package vars are the caller's (or an
// amortized buffer's) budget and left to the AllocsPerRun tests.
func (h *hotChecker) checkAppend(call *ast.CallExpr) {
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return // a field or an element: an amortized buffer
	}
	obj, isVar := h.pass.Info.Uses[dst].(*types.Var)
	if !isVar {
		return
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return // package-level var
	}
	if obj.Pos() < h.fn.Body.Pos() || obj.Pos() >= h.fn.End() {
		return // parameter or named result
	}
	if !h.presized[obj] {
		h.pass.Reportf(call.Pos(),
			"append to %s, which was not pre-sized with a 3-arg make; growth reallocates on the hot path", dst.Name)
	}
}

func (h *hotChecker) checkReturn(ret *ast.ReturnStmt) {
	obj := h.pass.Info.Defs[h.fn.Name]
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	results := sig.Results()
	if results.Len() != len(ret.Results) {
		return // naked return or single multi-value call
	}
	for i, r := range ret.Results {
		h.checkIfaceConv(r, results.At(i).Type())
	}
}

// checkIfaceConv reports when expr (a concrete, non-pointer-shaped,
// non-constant value) is implicitly converted to an interface target:
// that boxes the value on the heap.
func (h *hotChecker) checkIfaceConv(expr ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := h.pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		return // constants convert via static runtime symbols
	}
	src := tv.Type
	if _, isTuple := src.(*types.Tuple); isTuple {
		return // multi-value rhs (call, comma-ok); not a conversion
	}
	if types.IsInterface(src) {
		return
	}
	if b, isB := src.Underlying().(*types.Basic); isB && b.Kind() == types.UntypedNil {
		return
	}
	if pointerShaped(src) {
		return // pointers, chans, maps, funcs box without allocating
	}
	if h.inPanicArg(expr.Pos()) {
		return
	}
	h.pass.Reportf(expr.Pos(),
		"implicit conversion of %s to %s boxes the value on the heap", src.String(), target.String())
}

func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// capturedVars lists variables referenced inside lit but declared in
// the enclosing function outside it — the captures that force the
// closure (and captured vars) to the heap.
func capturedVars(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) []string {
	var names []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, isVar := pass.Info.Uses[id].(*types.Var)
		if !isVar || seen[obj] || obj.IsField() {
			return true
		}
		// Declared inside the enclosing function but outside the literal.
		if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}
