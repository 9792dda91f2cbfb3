// Package tierorder flags Put calls on store-typed values inside
// `err != nil` blocks: writing to the cache on an error path is how a
// failed search gets cached, which the service invariant (failed
// searches are never written to any tier) forbids. A deliberate write
// is waived with //aarc:errpath <reason>.
//
// The store wrappers' composition order (Tiered ⊃ Breaker ⊃ Retry ⊃
// disk) is not checked here: it has one site, store.NewDurable, and
// TestResilientStackEndToEnd fails on each inversion of it.
package tierorder

import (
	"go/ast"

	"aarc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tierorder",
	Doc:  "check for store Puts on error paths, which can cache a failed search",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkErrorPathPuts(pass, fd)
		}
	}
	return nil
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
