package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// Shardlock enforces the proxy tier's lock discipline from the
// sharded-concurrency work:
//
//  1. no blocking operation (origin/http call, channel op, sleep,
//     WaitGroup.Wait — transitively through package-local calls) while
//     a shard mutex is held;
//  2. every Lock has a matching Unlock or defer Unlock in the same
//     function, and no return is reached with a lock held unless its
//     Unlock is deferred;
//  3. fields of mutex-guarded structs are written only with the lock
//     held (outside constructors), so cross-shard state is forced
//     through atomics.
//
// sync.Cond.Wait is deliberately NOT in the blocking set: it releases
// the lock while parked, which is exactly the relay fan-out pattern.
var Shardlock = &Analyzer{
	Name: "shardlock",
	Doc: "in internal/proxy: no blocking calls under a shard mutex, " +
		"every Lock dominated by an Unlock, guarded fields written " +
		"only under their lock",
	Run: runShardlock,
}

// Packages whose calls block (network, subprocess) — holding a shard
// lock across any of these serializes the shard behind I/O.
var blockingPkgs = map[string]bool{
	"net":          true,
	"net/http":     true,
	"net/rpc":      true,
	"os/exec":      true,
	"database/sql": true,
}

func runShardlock(pass *Pass) error {
	if pass.PkgPath != ModulePath+"/internal/proxy" {
		return nil
	}
	sl := &shardlockChecker{
		pass:     pass,
		blocking: map[*types.Func]string{},
	}
	sl.buildBlockingSet()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sl.checkFunc(fd)
		}
	}
	return nil
}

type shardlockChecker struct {
	pass *Pass
	// blocking maps package-local functions to the reason they block,
	// computed as a fixed point over the intra-package call graph.
	blocking map[*types.Func]string
	// fn is the declaration checkFunc is walking.
	fn *ast.FuncDecl
	// deferred holds the mutexes whose Unlock the body being walked has
	// deferred so far: a return may leave those held.
	deferred map[string]bool
}

// directBlockReason classifies a single call expression, ignoring
// package-local propagation (handled by the fixed point).
func (sl *shardlockChecker) directBlockReason(call *ast.CallExpr) string {
	fn := staticCallee(sl.pass.Info, call)
	if fn == nil {
		return ""
	}
	pkg := calleePkgPath(fn)
	switch {
	case blockingPkgs[pkg]:
		return "calls into " + pkg
	case pkg == "time" && fn.Name() == "Sleep":
		return "calls time.Sleep"
	case pkg == "sync" && FuncKey(fn) == "sync.WaitGroup.Wait":
		return "waits on a sync.WaitGroup"
	case pkg == "io" && (fn.Name() == "Copy" || fn.Name() == "CopyN" ||
		fn.Name() == "CopyBuffer" || fn.Name() == "ReadAll"):
		return "performs io." + fn.Name() + " (reader may block)"
	}
	return ""
}

// buildBlockingSet marks package-local functions that block, directly
// or through other package-local calls.
func (sl *shardlockChecker) buildBlockingSet() {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range sl.pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, isFn := sl.pass.Info.Defs[fd.Name].(*types.Func); isFn {
					decls[fn] = fd
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if sl.blocking[fn] != "" {
				continue
			}
			reason := sl.funcBlockReason(fd)
			if reason != "" {
				sl.blocking[fn] = reason
				changed = true
			}
		}
	}
}

// blockReason says why one node blocks — a channel operation, a call
// directBlockReason names, or a call of a package-local function already
// known to block — or "" if it does not.
func (sl *shardlockChecker) blockReason(n ast.Node) string {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "sends on a channel"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "receives from a channel"
		}
	case *ast.SelectStmt:
		return "selects on channels"
	case *ast.CallExpr:
		if r := sl.directBlockReason(x); r != "" {
			return r
		}
		if fn := staticCallee(sl.pass.Info, x); fn != nil && fn.Pkg() == sl.pass.Pkg && sl.blocking[fn] != "" {
			return "calls " + fn.Name() + ", which " + sl.blocking[fn]
		}
	}
	return ""
}

// funcBlockReason is the first reason anything in one function body
// blocks. Goroutine bodies and func literals are skipped: what a
// spawned goroutine does is its own timeline.
func (sl *shardlockChecker) funcBlockReason(fd *ast.FuncDecl) string {
	reason := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		if reason == "" {
			reason = sl.blockReason(n)
		}
		return reason == ""
	})
	return reason
}

// --- per-function lock-state walk ----------------------------------------

// lockState maps a mutex expression (rendered as source text, e.g.
// "sh.mu") to the position where it was locked.
type lockState map[string]token.Pos

func (sl *shardlockChecker) checkFunc(fd *ast.FuncDecl) {
	sl.fn = fd
	// Pre-pass: which mutexes have any Unlock (plain or deferred)
	// anywhere in the function? A Lock with none is a guaranteed leak.
	unlocked := map[string]bool{}
	var locks []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch m, op := sl.mutexOp(call); op {
			case "Unlock", "RUnlock":
				unlocked[m] = true
			case "Lock", "RLock":
				locks = append(locks, call)
			}
		}
		return true
	})
	for _, call := range locks {
		if m, op := sl.mutexOp(call); !unlocked[m] {
			sl.pass.Reportf(call.Pos(),
				"%s.%s has no matching Unlock anywhere in this function; add an unlock or defer", m, op)
		}
	}

	sl.walkBody(fd.Body)

	// Each func literal is its own timeline (goroutine body, callback,
	// deferred cleanup): walk it with a fresh lock state. The walker
	// itself never descends into literals, so each is visited once.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			sl.walkBody(lit.Body)
		}
		return true
	})
}

// walkBody walks one function body — a declaration's or a literal's —
// from an empty lock state.
func (sl *shardlockChecker) walkBody(body *ast.BlockStmt) {
	sl.deferred = map[string]bool{}
	sl.walkStmts(body.List, lockState{})
}

// mutexOp recognizes m.Lock()/Unlock()/RLock()/RUnlock() where m's
// type is sync.Mutex or sync.RWMutex (possibly behind a pointer), and
// returns the rendered mutex expression and the operation name.
func (sl *shardlockChecker) mutexOp(call *ast.CallExpr) (mutex, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	t := sl.pass.Info.TypeOf(sel.X)
	if !isSyncMutex(t) {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	name := types.TypeString(t, nil)
	return name == "sync.Mutex" || name == "sync.RWMutex"
}

// walkStmts threads the held-lock set through a statement list.
// Branches get copies; at joins a lock is considered released if any
// branch released it (conservative toward fewer false positives).
// The returned state is the fall-through state.
func (sl *shardlockChecker) walkStmts(stmts []ast.Stmt, held lockState) lockState {
	for _, s := range stmts {
		held = sl.walkStmt(s, held)
	}
	return held
}

func (sl *shardlockChecker) walkStmt(s ast.Stmt, held lockState) lockState {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			if m, op := sl.mutexOp(call); m != "" {
				switch op {
				case "Lock", "RLock":
					held[m] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, m)
				}
				return held
			}
		}
		sl.scanBlocking(x, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the
		// function, which is fine; statements after it are still
		// "under the lock" for the blocking check, so do NOT release.
		// Defers of other calls: their bodies run at return time — a
		// deferred literal that unlocks counts like a deferred Unlock.
		ast.Inspect(x.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if m, op := sl.mutexOp(call); op == "Unlock" || op == "RUnlock" {
					sl.deferred[m] = true
				}
			}
			return true
		})
	case *ast.ReturnStmt:
		sl.scanBlocking(x, held)
		if m, pos := earliestLock(held, sl.deferred); m != "" {
			sl.pass.Reportf(x.Pos(), "return while holding %s (locked at %s) and no deferred unlock; unlock on this path or defer it",
				m, sl.pass.Fset.Position(pos))
		}
	case *ast.GoStmt:
		// The spawned goroutine runs on its own timeline; argument
		// evaluation is non-blocking for our operation set.
	case *ast.IfStmt:
		if x.Init != nil {
			held = sl.walkStmt(x.Init, held)
		}
		sl.scanBlockingExpr(x.Cond, held)
		thenOut := sl.walkStmts(x.Body.List, maps.Clone(held))
		elseOut := maps.Clone(held)
		switch alt := x.Else.(type) {
		case *ast.BlockStmt:
			elseOut = sl.walkStmts(alt.List, maps.Clone(held))
		case *ast.IfStmt:
			elseOut = sl.walkStmt(alt, maps.Clone(held))
		}
		// Terminating branches (return/panic) drop out of the join.
		if terminatesStmts(x.Body.List) {
			return elseOut
		}
		if x.Else != nil && terminatesStmts([]ast.Stmt{x.Else}) {
			return thenOut
		}
		return joinStates(thenOut, elseOut)
	case *ast.ForStmt:
		if x.Init != nil {
			held = sl.walkStmt(x.Init, held)
		}
		if x.Cond != nil {
			sl.scanBlockingExpr(x.Cond, held)
		}
		body := sl.walkStmts(x.Body.List, maps.Clone(held))
		return joinStates(held, body)
	case *ast.RangeStmt:
		sl.scanBlockingExpr(x.X, held)
		body := sl.walkStmts(x.Body.List, maps.Clone(held))
		return joinStates(held, body)
	case *ast.BlockStmt:
		return sl.walkStmts(x.List, held)
	case *ast.LabeledStmt:
		return sl.walkStmt(x.Stmt, held)
	case *ast.SwitchStmt:
		if x.Init != nil {
			held = sl.walkStmt(x.Init, held)
		}
		if x.Tag != nil {
			sl.scanBlockingExpr(x.Tag, held)
		}
		return sl.walkCases(x.Body, held)
	case *ast.TypeSwitchStmt:
		return sl.walkCases(x.Body, held)
	case *ast.SelectStmt:
		if len(held) > 0 {
			sl.reportBlocked(x, sl.blockReason(x), held)
		}
		for _, c := range x.Body.List {
			sl.walkStmts(c.(*ast.CommClause).Body, maps.Clone(held))
		}
	default:
		sl.scanBlocking(s, held)
	}
	return held
}

// walkCases handles switch bodies: each case starts from the incoming
// state; a lock released in every non-terminating case is released
// after the switch.
func (sl *shardlockChecker) walkCases(body *ast.BlockStmt, held lockState) lockState {
	out := maps.Clone(held)
	first := true
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		caseOut := sl.walkStmts(cc.Body, maps.Clone(held))
		if terminatesStmts(cc.Body) {
			continue
		}
		if first {
			out = caseOut
			first = false
		} else {
			out = joinStates(out, caseOut)
		}
	}
	return out
}

// joinStates keeps only locks held on both paths (a lock released on
// either side is treated as released, biasing toward no false
// positives after joins).
func joinStates(a, b lockState) lockState {
	out := lockState{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// earliestLock names the held mutex that was locked first and is not
// in skip, so a finding's wording does not follow map iteration order.
func earliestLock(held lockState, skip map[string]bool) (mutex string, pos token.Pos) {
	for m, p := range held {
		if !skip[m] && (mutex == "" || p < pos) {
			mutex, pos = m, p
		}
	}
	return mutex, pos
}

// terminatesStmts reports whether a statement list always transfers
// control out (return, panic, break/continue/goto). Approximate: only
// the last statement is examined.
func terminatesStmts(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch x := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminatesStmts(x.List)
	case *ast.IfStmt:
		return terminatesStmts(x.Body.List) && x.Else != nil && terminatesStmts([]ast.Stmt{x.Else})
	}
	return false
}

// scanBlocking inspects one statement (not descending into nested
// statements with their own control flow — the walker handles those,
// and walkStmt only calls this for leaf statements) for blocking
// operations while locks are held, and for guarded-field writes.
func (sl *shardlockChecker) scanBlocking(n ast.Node, held lockState) {
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			sl.checkGuardedWrite(lhs, as.Pos(), held)
		}
	}
	if inc, ok := n.(*ast.IncDecStmt); ok {
		sl.checkGuardedWrite(inc.X, inc.Pos(), held)
	}
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // deferred execution
		}
		if r := sl.blockReason(node); r != "" {
			sl.reportBlocked(node, r, held)
		}
		return true
	})
}

// reportBlocked reports a node that blocks, for reason, under a lock.
func (sl *shardlockChecker) reportBlocked(n ast.Node, reason string, held lockState) {
	m, pos := earliestLock(held, nil)
	sl.pass.Reportf(n.Pos(), "%s while holding %s (locked at %s); release the lock before blocking",
		reason, m, sl.pass.Fset.Position(pos))
}

func (sl *shardlockChecker) scanBlockingExpr(e ast.Expr, held lockState) {
	if len(held) > 0 {
		sl.scanBlocking(&ast.ExprStmt{X: e}, held)
	}
}

// --- guarded-field writes -------------------------------------------------

// checkGuardedWrite enforces "cross-shard state through atomics":
// writing a field of a struct that declares a sync.Mutex/RWMutex field
// requires holding one of that struct's mutexes (any expression ending
// in the mutex field name), except inside constructor functions that
// return the struct type.
func (sl *shardlockChecker) checkGuardedWrite(lhs ast.Expr, pos token.Pos, held lockState) {
	lhs = ast.Unparen(lhs)
	// Unwrap index expressions: m[k] = v writes through the map/slice
	// field m, which is the guarded object.
	for {
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			lhs = ast.Unparen(idx.X)
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selInfo, ok := sl.pass.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	recvT := selInfo.Recv()
	mutexField := guardMutexField(recvT)
	if mutexField == "" || sel.Sel.Name == mutexField {
		return
	}
	// Writes in a constructor of the guarded type are initialization.
	if sl.inConstructor(recvT) {
		return
	}
	// Is some held lock rooted at the same receiver (e.g. holding
	// "sh.mu" while writing sh.inflight)? Match on receiver text.
	recvText := types.ExprString(sel.X)
	for m := range held {
		if m == recvText+"."+mutexField {
			return
		}
	}
	sl.pass.Reportf(pos,
		"write to %s.%s without holding %s.%s; guarded state must be written under its mutex (atomics for cross-shard counters)", recvText, sel.Sel.Name, recvText, mutexField)
}

// guardMutexField returns the name of the first sync.Mutex/RWMutex
// field of the (possibly pointer-to) struct type, or "".
func guardMutexField(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isSyncMutex(f.Type()) {
			return f.Name()
		}
	}
	return ""
}

// inConstructor reports whether the function being walked returns (a
// pointer to) the named type of t — the constructor exemption for
// initialization writes.
func (sl *shardlockChecker) inConstructor(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || sl.fn.Type.Results == nil {
		return false
	}
	for _, res := range sl.fn.Type.Results.List {
		rt := sl.pass.Info.TypeOf(res.Type)
		if p, isP := rt.(*types.Pointer); isP {
			rt = p.Elem()
		}
		if n, isN := rt.(*types.Named); isN && n.Obj() == named.Obj() {
			return true
		}
	}
	return false
}
