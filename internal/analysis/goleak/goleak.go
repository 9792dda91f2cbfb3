// Package goleak is the static complement to testutil.VerifyNoLeaks:
// it flags `go` statements that launch a goroutine with no reachable
// stop signal. A goroutine is considered stoppable when something can
// make it return:
//
//   - it can observe a context.Context (one flows in as an argument,
//     or the body references one);
//   - it blocks on a channel receive (<-ch, range over a channel, or
//     a select receive case) — whoever closes that channel stops it;
//   - it provably terminates on its own: a loop-free body runs off
//     its end.
//
// Anything else — the classic `go func() { for { work() } }()` — keeps
// running after Close and fails VerifyNoLeaks only if a test happens
// to exercise the spawn site; this check moves that to build time. For
// callees in other packages the analysis is signature-based: a
// parameter (or call-site argument) of context or channel type counts
// as the stop signal. The waiver is //aarc:leaky <reason>.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc:  "flag goroutines launched without a reachable stop signal (no context, channel receive, or terminating body)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return nil
	}

	// Local declarations, so `go s.loop()` can be judged by loop's body
	// rather than its signature.
	files := pass.NonTestFiles()
	graph := flow.BuildCallGraph(files, pass.TypesInfo)

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if stoppable(pass, graph, gs) {
				return true
			}
			if m, ok := pass.Markers().At(pass.Fset, gs.Pos(), "leaky"); ok {
				if m.Arg == "" {
					pass.Reportf(gs.Pos(), "//aarc:leaky marker needs a reason")
				}
				return true
			}
			pass.Reportf(gs.Pos(), "goroutine has no reachable stop signal (no context, channel receive, or terminating body); thread a ctx or done channel through it or mark //aarc:leaky <reason>")
			return true
		})
	}
	return nil
}

// stoppable decides whether the spawned goroutine can be stopped (or
// stops by itself).
func stoppable(pass *analysis.Pass, graph *flow.CallGraph, gs *ast.GoStmt) bool {
	// A context or channel handed in at the spawn site is a stop
	// signal regardless of what we know about the callee.
	for _, arg := range gs.Call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && isSignalType(t) {
			return true
		}
	}

	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return bodyStoppable(pass, graph, lit.Body, 0)
	}

	if fn := analysis.FuncOf(pass.TypesInfo, gs.Call); fn != nil {
		return fnStoppable(pass, graph, fn, 0)
	}

	// A dynamic call (go f() through a func value): judge by the func
	// value's signature.
	if sig, ok := pass.TypesInfo.TypeOf(gs.Call.Fun).(*types.Signature); ok {
		return signatureHasSignal(sig)
	}
	return false
}

func fnStoppable(pass *analysis.Pass, graph *flow.CallGraph, fn *types.Func, depth int) bool {
	if sig := fn.Signature(); sig != nil && signatureHasSignal(sig) {
		return true
	}
	if node := graph.Nodes[flow.FullName(fn)]; node != nil {
		return bodyStoppable(pass, graph, node.Decl.Body, depth)
	}
	// Cross-package callee without a signal in its signature: assumed
	// to leak (its own package can restructure or waive).
	return false
}

// bodyStoppable scans a spawned body for a stop signal or guaranteed
// termination. depth bounds the one-hop expansion of in-package
// helpers the body delegates to.
func bodyStoppable(pass *analysis.Pass, graph *flow.CallGraph, body *ast.BlockStmt, depth int) bool {
	hasLoop := false
	hasSignal := false
	var callees []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			hasLoop = true
		case *ast.RangeStmt:
			hasLoop = true
			// Ranging over a channel is itself a receive.
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					hasSignal = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				hasSignal = true
			}
		case *ast.Ident:
			if t := pass.TypesInfo.TypeOf(n); t != nil && analysis.IsContextType(t) {
				hasSignal = true
			}
		case *ast.CallExpr:
			if fn := analysis.FuncOf(pass.TypesInfo, n); fn != nil {
				callees = append(callees, fn)
			}
		case *ast.FuncLit:
			return false // a nested literal is its own goroutine problem only if spawned
		}
		return true
	})
	if hasSignal {
		return true
	}
	if !hasLoop {
		return true // straight-line body terminates on its own
	}
	// A looping body with no direct signal may delegate the blocking
	// to a helper (`for { if d.step() { return } }` where step selects
	// on a done channel). The helper must itself observe a signal —
	// merely terminating is not enough, the loop around it still
	// spins. Expand in-package callees one level.
	if depth < 1 {
		for _, fn := range callees {
			if helperHasSignal(pass, graph, fn) {
				return true
			}
		}
	}
	return false
}

// helperHasSignal reports whether a callee can observe a stop signal:
// its signature takes one, or its (in-package) body references a
// context, receives from a channel, or ranges over one.
func helperHasSignal(pass *analysis.Pass, graph *flow.CallGraph, fn *types.Func) bool {
	if sig := fn.Signature(); sig != nil && signatureHasSignal(sig) {
		return true
	}
	node := graph.Nodes[flow.FullName(fn)]
	if node == nil {
		return false
	}
	found := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			if t := pass.TypesInfo.TypeOf(n); t != nil && analysis.IsContextType(t) {
				found = true
			}
		case *ast.FuncLit:
			return false
		}
		return !found
	})
	return found
}

// signatureHasSignal reports whether any parameter (or the receiver)
// is context- or channel-typed.
func signatureHasSignal(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isSignalType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isSignalType(t types.Type) bool {
	if analysis.IsContextType(t) {
		return true
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}
