package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the byte-identical-sweeps contract: in the
// packages whose output the experiment fingerprints cover, nothing may
// read the wall clock, draw from the process-global rand source,
// launch goroutines outside the internal/par seam, or let map
// iteration order leak into emitted results.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, global math/rand, ad-hoc goroutines, and " +
		"map-iteration-ordered output in deterministic packages",
	Run: runDeterminism,
}

// deterministicPackages are fully checked: every function in them must
// be replayable from a seed. internal/load is not among them: Run paces
// in real time by design, and the one deterministic thing there — the
// schedule bytes as a function of (seed, spec, trace) — is pinned by
// sha256 in TestScheduleByteIdenticalAcrossRuns.
var deterministicPackages = map[string]bool{
	ModulePath + "/internal/core":        true,
	ModulePath + "/internal/sim":         true,
	ModulePath + "/internal/experiments": true,
	ModulePath + "/internal/workload":    true,
	ModulePath + "/internal/dist":        true,
	ModulePath + "/internal/merge":       true,
	ModulePath + "/internal/trace":       true,
	ModulePath + "/internal/bandwidth":   true,
}

// Wall-clock entry points in package time. time.Duration arithmetic
// and constants are fine; reading or waiting on the real clock is not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Package-level math/rand functions that do NOT touch the global
// source and stay allowed.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPackages[pass.PkgPath] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncDeterminism(pass, fd)
		}
	}
	return nil
}

func checkFuncDeterminism(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(),
				"goroutine launched in deterministic code; route concurrency through internal/par so results merge in a fixed order")
		case *ast.CallExpr:
			checkDeterministicCall(pass, x)
		case *ast.BlockStmt:
			checkMapRanges(pass, x.List)
		case *ast.CaseClause:
			checkMapRanges(pass, x.Body)
		case *ast.CommClause:
			checkMapRanges(pass, x.Body)
		}
		return true
	})
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := staticCallee(pass.Info, call)
	if fn == nil {
		return
	}
	switch calleePkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; deterministic code must derive timing from the seed or an injected clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			return // method on a seeded *rand.Rand / Source / Zipf
		}
		if seededRandConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"%s.%s draws from the process-global source; use a *rand.Rand seeded via sim.SplitSeed", calleePkgPath(fn), fn.Name())
	}
}

// --- map iteration order -------------------------------------------------

// checkMapRanges takes one statement list — every block, case and comm
// clause body of a function is one — and checks each `for range m` over
// a map in it for order-sensitive effects, with access to the
// statements that follow the loop (a sort of the collected keys/rows
// immediately after the loop is the sanctioned collect-then-sort
// idiom).
func checkMapRanges(pass *Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		if ls, ok := s.(*ast.LabeledStmt); ok {
			s = ls.Stmt
		}
		if rs, ok := s.(*ast.RangeStmt); ok {
			if _, overMap := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); overMap {
				checkMapRangeBody(pass, rs, stmts[i+1:])
			}
		}
	}
}

// checkMapRangeBody flags three order-sensitive effects inside a map
// range body:
//
//  1. appending to a slice declared outside the loop, unless the slice
//     is sorted (sort.* / slices.Sort*) before its next use after the
//     loop — the collect-then-sort idiom;
//  2. non-commutative accumulation (+= / -= on float or string
//     lvalues rooted outside the loop; float addition is not
//     associative, so iteration order changes the sum bit pattern);
//  3. direct emission into a row sink (Row / IndexedRow / Emit calls).
//
// Integer accumulation and pure lookups are commutative and pass.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, after []ast.Stmt) {
	type appendTarget struct {
		obj types.Object
		pos token.Pos
	}
	var appends []appendTarget
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			switch x.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range x.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || builtinName(pass.Info, call) != "append" || i >= len(x.Lhs) {
						continue
					}
					id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj != nil && declaredOutside(obj, rs) {
						appends = append(appends, appendTarget{obj, x.Pos()})
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				lhs := x.Lhs[0]
				if !orderSensitiveAccumType(pass.Info.TypeOf(lhs)) {
					return true
				}
				root := rootIdent(lhs)
				if root == nil {
					return true
				}
				if obj := pass.Info.Uses[root]; obj != nil && declaredOutside(obj, rs) {
					pass.Reportf(x.Pos(),
						"order-sensitive accumulation into %s inside range over map: float/string accumulation depends on iteration order; iterate sorted keys", root.Name)
				}
			}
		case *ast.CallExpr:
			if name := rowSinkCallName(x); name != "" {
				pass.Reportf(x.Pos(),
					"%s called inside range over map: row emission order follows map iteration order; iterate sorted keys", name)
			}
		}
		return true // closure bodies too: they run per iteration when called inline
	})

	for _, ap := range appends {
		if sortedBeforeUse(pass, ap.obj, after) {
			continue
		}
		pass.Reportf(ap.pos,
			"append to %s inside range over map feeds output in iteration order; sort %s after the loop or iterate sorted keys", ap.obj.Name(), ap.obj.Name())
	}
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement (so mutations inside the loop escape it).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

func orderSensitiveAccumType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsString|types.IsComplex) != 0
}

// rowSinkCallName recognizes emission calls whose order is
// user-visible: methods named Row/IndexedRow/Emit (the RowSink and
// engine sink surface).
func rowSinkCallName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Row", "IndexedRow", "Emit":
			return sel.Sel.Name
		}
	}
	return ""
}

// sortedBeforeUse scans the statements after the loop: if the first
// statement mentioning obj is a call into sort or slices (obj can only
// be among its operands), the collect-then-sort idiom applies.
func sortedBeforeUse(pass *Pass, obj types.Object, after []ast.Stmt) bool {
	for _, s := range after {
		mentioned := false
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				mentioned = true
			}
			return true
		})
		if !mentioned {
			continue
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				pkg := calleePkgPath(staticCallee(pass.Info, call))
				return pkg == "sort" || pkg == "slices"
			}
		}
		return false
	}
	return false
}
