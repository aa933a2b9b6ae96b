// Package analysis implements mediavet, the repo's in-house static
// analyzer. It machine-enforces the one load-bearing contract that has
// faults only a static check catches (scripts/mutate-check.sh holds the
// faults): shardlock — internal/proxy keeps shard locks short, never
// blocks or returns while holding one; cross-shard state goes through
// atomics.
//
// Byte-identical output for a seed and the zero-allocation budget of
// the hit paths are measured, not analyzed: the golden-table and
// cross-parallelism tests and the AllocsPerRun pins beside the code own
// them.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Reportf) but is self-contained on the
// standard library: packages are loaded via `go list -export` and type
// checked with the gc export-data importer, so the module keeps its
// zero-dependency property. cmd/mediavet drives Shardlock through
// Runner, the one driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ModulePath is the import-path prefix of this repository. Shardlock
// uses it to scope its check to internal/proxy.
const ModulePath = "streamcache"

// An Analyzer is one named check. Run inspects a fully type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	PkgPath  string
	Info     *types.Info

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name, File: at.Filename, Line: at.Line, Col: at.Column, Message: fmt.Sprintf(format, args...),
	})
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

// calleePkgPath returns the defining package path of fn, or "" for
// builtins and universe-scope functions.
func calleePkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
