// Package lockscope checks the serving layer's lock-hygiene invariant:
// no searching, store I/O, event publishing, or workflow evaluation
// while a mutex is held. The two deadlock classes this encodes were
// found the hard way — a batch run attaching to a singleflight while a
// queue mutex was held, and an event hook publishing into a bounded bus
// from under a service lock; both only surfaced under load. The one
// sanctioned exception is a mutex that *owns* the callee — the
// runner-pool shards, where the shard mutex is exactly what makes a
// non-thread-safe Runner usable — and such sites carry an
// //aarc:locked <reason> marker.
//
// The analysis is a conservative per-function walk: it tracks
// mu.Lock()/RLock() ... mu.Unlock()/RUnlock() pairs (including the
// defer-unlock idiom) through straight-line code and into branches, and
// flags target calls made anywhere a lock is statically held. Bodies
// of `go` statements run on their own goroutine and are walked with an
// empty lock set.
package lockscope

import (
	"go/ast"
	"go/types"

	"aarc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "flag search/store/publish/evaluate calls made while a mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				walkStmts(pass, fd.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// lockCall classifies a call as Lock/RLock (+1), Unlock/RUnlock (-1)
// on a sync mutex, returning the printed receiver expression as the
// lock's identity.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (key string, dir int) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return "", 0
	}
	if pkg := fn.Pkg(); pkg == nil || pkg.Path() != "sync" {
		return "", 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, +1
	case "Unlock", "RUnlock":
		return key, -1
	}
	return "", 0
}

// walkStmts interprets a statement list, threading the set of held
// locks. Branch bodies get copies: a lock released on one path is
// conservatively still considered held on the other.
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		walkStmt(pass, s, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func walkStmt(pass *analysis.Pass, stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, dir := lockCall(pass, call); dir != 0 {
				if dir > 0 {
					held[key] = true
				} else {
					delete(held, key)
				}
				return
			}
		}
		checkExpr(pass, s.X, held)
	case *ast.DeferStmt:
		if key, dir := lockCall(pass, s.Call); dir != 0 {
			if dir < 0 {
				// defer mu.Unlock(): held for the rest of the
				// function; nothing to update.
				return
			}
			held[key] = true
			return
		}
		checkExpr(pass, s.Call, held)
	case *ast.GoStmt:
		// New goroutine: does not inherit the caller's locks. The
		// spawn expression's arguments are evaluated here, though.
		for _, arg := range s.Call.Args {
			checkExpr(pass, arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			walkStmts(pass, lit.Body.List, map[string]bool{})
		}
	case *ast.BlockStmt:
		walkStmts(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, held)
		}
		checkExpr(pass, s.Cond, held)
		walkStmts(pass, s.Body.List, copyHeld(held))
		if s.Else != nil {
			walkStmt(pass, s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, held)
		}
		walkStmts(pass, s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		checkExpr(pass, s.X, held)
		walkStmts(pass, s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, held)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkStmts(pass, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkExpr(pass, rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkExpr(pass, r, held)
		}
	default:
		// DeclStmt, SendStmt, IncDec, Branch...: scan for calls.
		checkNode(pass, stmt, held)
	}
}

// checkExpr flags target calls in an expression evaluated while held
// locks exist. Function literals are walked with the same lock set:
// a literal built under a lock is overwhelmingly invoked under it
// (sort.Slice callbacks, inline wrappers).
func checkExpr(pass *analysis.Pass, e ast.Expr, held map[string]bool) {
	checkNode(pass, e, held)
}

func checkNode(pass *analysis.Pass, n ast.Node, held map[string]bool) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, dir := lockCall(pass, call); dir != 0 {
			_ = key // nested lock ops inside expressions are rare; ignore.
			return true
		}
		checkTarget(pass, call, held)
		return true
	})
}

// checkTarget reports a diagnostic if call is one of the forbidden
// operations and no //aarc:locked waiver covers it.
func checkTarget(pass *analysis.Pass, call *ast.CallExpr, held map[string]bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return
	}
	recvPkg := ""
	if p := fn.Pkg(); p != nil {
		recvPkg = p.Name()
	}
	var what string
	switch fn.Name() {
	case "Search":
		what = "a search"
	case "Publish":
		if recvPkg != "event" {
			return
		}
		what = "an event publish"
	case "Get", "Put", "Delete", "Keys", "Warm":
		if recvPkg != "store" {
			return
		}
		what = "store I/O"
	case "Evaluate", "MeanEvaluate":
		if recvPkg != "workflow" {
			return
		}
		what = "a workflow evaluation"
	default:
		return
	}
	if m, ok := pass.Markers().At(pass.Fset, call.Pos(), "locked"); ok {
		if m.Arg == "" {
			pass.Reportf(call.Pos(), "//aarc:locked marker needs a reason")
		}
		return
	}
	pass.Reportf(call.Pos(), "%s while holding mutex %s can deadlock or serialize the serving path; move it outside the critical section or mark //aarc:locked <reason>", what, heldNames(held))
}

func heldNames(held map[string]bool) string {
	// Deterministic, and there is almost always exactly one.
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	if len(held) > 1 {
		return best + " (and others)"
	}
	return best
}
