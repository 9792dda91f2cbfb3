// Package tierorder checks store wrapper composition against the
// canonical stacking order:
//
//	Tiered ⊃ Breaker ⊃ Retry ⊃ base (Memory/Disk)
//
// Each layer's position is load-bearing: Tiered outermost so the fast
// tier keeps serving while the slow tier's breaker is open; Breaker
// outside Retry so one logical operation — however many retry attempts
// it takes — counts once against the trip threshold, and an open
// breaker fast-fails before burning retry backoff. Inverting
// Retry(Breaker(...)) makes every probe storm the backend and trips the
// breaker on attempt counts, the exact misconfiguration the chaos drills
// guard against. Faulty is a transparent chaos layer and may appear
// anywhere; it inherits the rank of what it wraps.
//
// The check resolves arguments through single-assignment locals, so
// the idiomatic "retrier := NewRetry(...); breaker := NewBreaker(
// retrier, ...)" chains are seen as one composition. A variable
// assigned more than once, a parameter, or a call result has unknown
// rank and is skipped — the analyzer under-approximates rather than
// guessing.
//
// It also flags Put calls on store-typed values inside `err != nil`
// blocks: writing to the cache on an error path is how a failed search
// gets cached, which the service invariant (failed searches are never
// written to any tier) forbids.
package tierorder

import (
	"go/ast"
	"go/types"

	"aarc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tierorder",
	Doc:  "check store wrapper composition order and Put-on-error-path caching",
	Run:  run,
}

// rank orders the wrapper constructors; outer must strictly exceed
// inner. Faulty is transparent (rank of its first argument).
var rank = map[string]int{
	"NewTiered":  3,
	"NewBreaker": 2,
	"NewRetry":   1,
	"NewMemory":  0,
	"OpenDisk":   0,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCompositions(pass, fd)
			checkErrorPathPuts(pass, fd)
		}
	}
	return nil
}

// storeCtor returns the rank-table name of the store constructor a call
// resolves to, if any. Matches both cross-package store.NewX calls and
// NewX inside the store package itself.
func storeCtor(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "store" {
		return "", false
	}
	name := fn.Name()
	if _, ok := rank[name]; ok || name == "NewFaulty" {
		return name, true
	}
	return "", false
}

func checkCompositions(pass *analysis.Pass, fd *ast.FuncDecl) {
	// defs: single-assignment locals -> the constructor call that
	// produced them. Multi-assigned names get poisoned to nil.
	defs := make(map[types.Object]*ast.CallExpr)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if _, seen := defs[obj]; seen {
				defs[obj] = nil // reassigned: unknown rank
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				if _, isCtor := storeCtor(pass, call); isCtor {
					defs[obj] = call
					continue
				}
			}
			defs[obj] = nil
		}
		return true
	})

	// rankOf resolves an argument expression to a wrapper rank:
	// directly a constructor call, or a single-assignment local bound
	// to one. ok is false when the rank is unknowable.
	var rankOf func(e ast.Expr) (int, string, bool)
	rankOf = func(e ast.Expr) (int, string, bool) {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.CallExpr:
			name, isCtor := storeCtor(pass, e)
			if !isCtor {
				return 0, "", false
			}
			if name == "NewFaulty" {
				if len(e.Args) > 0 {
					return rankOf(e.Args[0])
				}
				return 0, "", false
			}
			return rank[name], name, true
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				return 0, "", false
			}
			if call := defs[obj]; call != nil {
				return rankOf(call)
			}
		}
		return 0, "", false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, isCtor := storeCtor(pass, call)
		if !isCtor || name == "NewFaulty" {
			return true
		}
		outer := rank[name]
		// The wrapped store arguments: first arg for the single-inner
		// wrappers, both for Tiered.
		var inner []ast.Expr
		switch name {
		case "NewBreaker", "NewRetry":
			if len(call.Args) > 0 {
				inner = call.Args[:1]
			}
		case "NewTiered":
			inner = call.Args
		}
		for _, arg := range inner {
			if r, innerName, ok := rankOf(arg); ok && r >= outer {
				pass.Reportf(call.Pos(),
					"store wrapper order violation: %s may not wrap %s (canonical order: Tiered ⊃ Breaker ⊃ Retry ⊃ base)",
					name, innerName)
			}
		}
		return true
	})
}

// checkErrorPathPuts flags store Put calls lexically inside a block
// guarded by an `err != nil` comparison.
func checkErrorPathPuts(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !isErrNotNil(pass, ifs.Cond) {
			return true
		}
		ast.Inspect(ifs.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncOf(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Put" || fn.Signature().Recv() == nil {
				return true
			}
			if p := fn.Pkg(); p == nil || p.Name() != "store" {
				return true
			}
			if m, ok := pass.Markers().At(pass.Fset, call.Pos(), "errpath"); ok {
				if m.Arg == "" {
					pass.Reportf(call.Pos(), "//aarc:errpath marker needs a reason")
				}
				return true
			}
			pass.Reportf(call.Pos(), "store Put on an error path can cache a failed search; mark //aarc:errpath <reason> if the write is deliberate")
			return true
		})
		return true
	})
}

func isErrNotNil(pass *analysis.Pass, cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op.String() != "!=" {
		return false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if t := pass.TypesInfo.TypeOf(side); t != nil && t.String() == "error" {
			return true
		}
	}
	return false
}
