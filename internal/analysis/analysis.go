// Package analysis implements mediavet, the repo's in-house static
// analyzer suite. It machine-enforces the two load-bearing contracts
// that have a fault only a static check catches (scripts/mutate-check.sh
// holds the faults):
//
//   - determinism: sweep output must be byte-identical for a given seed
//     (no wall clock, no global rand, no map-order-dependent output,
//     no ad-hoc goroutines outside internal/par),
//   - shardlock: internal/proxy keeps shard locks short, never blocks
//     or returns while holding one; cross-shard state goes through
//     atomics.
//
// The zero-allocation budget of the hit paths is measured, not
// analyzed: the AllocsPerRun pins beside the code own it.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) but is self-contained on the
// standard library: packages are loaded via `go list -export` and type
// checked with the gc export-data importer, so the module keeps its
// zero-dependency property. cmd/mediavet drives the analyzers through
// Runner, the one driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ModulePath is the import-path prefix of this repository. Analyzers
// use it to scope package checks and to distinguish module-internal
// calls from standard-library ones.
const ModulePath = "streamcache"

// An Analyzer is one named check. Run inspects a fully type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is a single finding at a position, before suppression
// (//mediavet:ignore) has been applied.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	PkgPath  string
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding. The driver applies //mediavet:ignore
// suppression afterwards, so analyzers report unconditionally.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FuncKey renders a stable identity for a function or method:
// "pkgpath.Func" or "pkgpath.Recv.Method" with pointer receivers
// stripped.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.Pkg().Path() + ".?." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// staticCallee resolves a call expression to the *types.Func it
// statically invokes: a package-level function, a method called on a
// concrete receiver, or nil for func values, interface dispatch, type
// conversions, and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// builtinName is the name of the builtin a call invokes (append, make,
// panic, ...), or "" when it calls anything else.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			return b.Name()
		}
	}
	return ""
}

// calleePkgPath returns the defining package path of fn, or "" for
// builtins and universe-scope functions.
func calleePkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// rootIdent walks a selector/index/star chain (a.b[c].d, *p.q) down to
// its base identifier, or nil if the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
