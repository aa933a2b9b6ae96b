package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Rowsink guards the tabular-output schema: a table's Header and the
// rows emitted against it must agree on column count (a mismatch
// silently misaligns every CSV the sweep produces), and schema-bearing
// strings — header cells, record Type tags, fingerprint formats — must
// be compile-time constants so the Scale fingerprint that journal
// resume and shard merge compare never drifts at runtime.
var Rowsink = &Analyzer{
	Name: "rowsink",
	Doc: "header/row emitters agree on column count; schema strings " +
		"(header cells, *Record Type tags, Fingerprint formats) are constants",
	Run: runRowsink,
}

var rowsinkPackages = map[string]bool{
	ModulePath + "/internal/experiments": true,
	ModulePath + "/internal/load":        true,
	ModulePath + "/internal/merge":       true,
	ModulePath + "/internal/rowlog":      true,
}

func runRowsink(pass *Pass) error {
	if !rowsinkPackages[pass.PkgPath] {
		return nil
	}
	rs := &rowsinkChecker{pass: pass, pkgHeaders: map[types.Object]*ast.CompositeLit{}}
	rs.collectPackageHeaders()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			rs.checkFunc(fd)
		}
		rs.checkRecordLits(file)
	}
	return nil
}

type rowsinkChecker struct {
	pass *Pass
	// pkgHeaders maps package-level vars with []string literal
	// initializers and Header-suffixed names to their literals, so
	// `Header: scheduleHeader` pairs with rows in other functions.
	pkgHeaders map[types.Object]*ast.CompositeLit
}

func isStringSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isStringType(sl.Elem())
}

func isStringSliceSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isStringSlice(sl.Elem())
}

func (rs *rowsinkChecker) collectPackageHeaders() {
	for _, file := range rs.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) || !strings.HasSuffix(strings.ToLower(name.Name), "header") {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok || !isStringSlice(rs.pass.Info.TypeOf(lit)) {
						continue
					}
					if obj := rs.pass.Info.Defs[name]; obj != nil {
						rs.pkgHeaders[obj] = lit
					}
					// Header cells are schema: must be constants.
					rs.checkConstElems(lit, "header cell")
				}
			}
		}
	}
}

func (rs *rowsinkChecker) checkConstElems(lit *ast.CompositeLit, what string) {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		if !isConstExpr(rs.pass, el) {
			rs.pass.Reportf(el.Pos(),
				"%s is not a compile-time constant; schema strings must be constants so fingerprints stay stable", what)
		}
	}
}

// headerLitLen resolves a Header-position expression to a column
// count: a []string literal inline, or an identifier bound to a
// package-level []string literal.
func (rs *rowsinkChecker) headerLitLen(e ast.Expr) (int, bool) {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok && isStringSlice(rs.pass.Info.TypeOf(lit)) {
		return len(lit.Elts), true
	}
	if id, ok := e.(*ast.Ident); ok {
		if lit, ok := rs.pkgHeaders[rs.pass.Info.Uses[id]]; ok {
			return len(lit.Elts), true
		}
	}
	return 0, false
}

// checkFunc pairs the header literal(s) a function binds with the row
// literals it emits.
func (rs *rowsinkChecker) checkFunc(fd *ast.FuncDecl) {
	// Fingerprint methods: format strings must be constants.
	if fd.Name.Name == "Fingerprint" {
		rs.checkFingerprintFormats(fd)
	}

	type headerUse struct {
		n   int
		pos ast.Expr
	}
	var headers []headerUse
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok && id.Name == "Header" {
				if n, ok := rs.headerLitLen(x.Value); ok {
					headers = append(headers, headerUse{n, x.Value})
					if lit, isLit := ast.Unparen(x.Value).(*ast.CompositeLit); isLit {
						rs.checkConstElems(lit, "header cell")
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Header" || i >= len(x.Rhs) {
					continue
				}
				if n, ok := rs.headerLitLen(x.Rhs[i]); ok {
					headers = append(headers, headerUse{n, x.Rhs[i]})
					if lit, isLit := ast.Unparen(x.Rhs[i]).(*ast.CompositeLit); isLit {
						rs.checkConstElems(lit, "header cell")
					}
				}
			}
		}
		return true
	})
	if len(headers) == 0 {
		return
	}
	want := headers[0].n
	for _, h := range headers[1:] {
		if h.n != want {
			// Several tables with different schemas in one function:
			// ambiguous, skip row pairing.
			return
		}
	}

	report := func(lit *ast.CompositeLit, got int, how string) {
		if got != want {
			rs.pass.Reportf(lit.Pos(),
				"row %s has %d columns but the table header declares %d; header and row emitter must agree", how, got, want)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// sink.Row(...) / sink.IndexedRow(i, ...) with a []string literal arg.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Row" || sel.Sel.Name == "IndexedRow") {
				for _, arg := range x.Args {
					if lit, isLit := ast.Unparen(arg).(*ast.CompositeLit); isLit &&
						isStringSlice(rs.pass.Info.TypeOf(lit)) {
						report(lit, len(lit.Elts), "passed to "+sel.Sel.Name)
					}
				}
			}
			// append(rows, []string{...}) where rows is [][]string.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, isB := rs.pass.Info.Uses[id].(*types.Builtin); isB && b.Name() == "append" &&
					len(x.Args) > 0 && isStringSliceSlice(rs.pass.Info.TypeOf(x.Args[0])) {
					for _, arg := range x.Args[1:] {
						if lit, isLit := ast.Unparen(arg).(*ast.CompositeLit); isLit &&
							isStringSlice(rs.pass.Info.TypeOf(lit)) {
							report(lit, len(lit.Elts), "appended to the row set")
						}
					}
				}
			}
		case *ast.CompositeLit:
			// [][]string{{...}, {...}} table literals.
			if isStringSliceSlice(rs.pass.Info.TypeOf(x)) {
				for _, el := range x.Elts {
					if lit, isLit := el.(*ast.CompositeLit); isLit {
						report(lit, len(lit.Elts), "in the table literal")
					}
				}
			}
		case *ast.FuncLit:
			// Row-renderer closures returning []string.
			res := x.Type.Results
			if res == nil || len(res.List) != 1 || !isStringSlice(rs.pass.Info.TypeOf(res.List[0].Type)) {
				return true
			}
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if _, isLit := m.(*ast.FuncLit); isLit && m != x {
					return false
				}
				ret, isRet := m.(*ast.ReturnStmt)
				if !isRet || len(ret.Results) != 1 {
					return true
				}
				if lit, isLit := ast.Unparen(ret.Results[0]).(*ast.CompositeLit); isLit &&
					isStringSlice(rs.pass.Info.TypeOf(lit)) {
					report(lit, len(lit.Elts), "returned by the row renderer")
				}
				return true
			})
		}
		return true
	})
}

func (rs *rowsinkChecker) checkFingerprintFormats(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(rs.pass.Info, call)
		if fn == nil || calleePkgPath(fn) != "fmt" || !strings.HasPrefix(fn.Name(), "Sprint") {
			return true
		}
		if len(call.Args) > 0 && fn.Name() == "Sprintf" && !isConstExpr(rs.pass, call.Args[0]) {
			rs.pass.Reportf(call.Args[0].Pos(),
				"Fingerprint format string is not a constant; a runtime-built format destabilizes journal/merge compatibility checks")
		}
		return true
	})
}

// checkRecordLits enforces constant Type tags on journal/merge record
// structs (types whose name ends in "Record").
func (rs *rowsinkChecker) checkRecordLits(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := rs.pass.Info.TypeOf(lit)
		if t == nil {
			return true
		}
		named, ok := t.(*types.Named)
		if !ok || !strings.HasSuffix(named.Obj().Name(), "Record") {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Type" {
				continue
			}
			if !isConstExpr(rs.pass, kv.Value) {
				rs.pass.Reportf(kv.Value.Pos(),
					"%s.Type is not a compile-time constant; record type tags are schema and must be constants", named.Obj().Name())
			}
		}
		return true
	})
}
