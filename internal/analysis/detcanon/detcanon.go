// Package detcanon checks that everything feeding the content-addressed
// cache keys is deterministic. Fingerprints are hashes over canonical
// bytes (workflow.CanonicalJSON, search.Options.CanonicalJSON, the
// service's key construction); one byte of nondeterminism silently
// splits identical work across cache entries, and a nondeterministic
// *input* to the hash breaks the restart/warm-start guarantees the
// store tiers rely on. The analyzer roots a call graph at every
// function named CanonicalJSON or Fingerprint (plus any function whose
// doc comment carries //aarc:canonical) and, within the reachable set,
// flags the nondeterminism sources that have actually bitten:
//
//   - time.Now — wall-clock in a content hash
//   - package-level math/rand and math/rand/v2 functions — the shared,
//     unseeded source (methods on an explicitly seeded *rand.Rand are
//     fine and are how the runners work)
//   - range over a map whose iteration order can escape into output,
//     unless the loop is a map-to-map copy (re-keyed, so order-free),
//     the function sorts after the loop, or the site carries an
//     //aarc:sorted <reason> marker
//   - Keys() calls — store key listings are unordered by contract —
//     with the same sort-after/marker escape hatches
package detcanon

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "detcanon",
	Doc:  "flag nondeterminism reachable from the fingerprint/canonicalization call graph",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Roots: canonicalization entry points by name or marker.
	graph := flow.BuildCallGraph(pass.NonTestFiles(), pass.TypesInfo)
	names := graph.SortedNames()
	var roots []string
	for _, name := range names {
		if isRoot(graph.Nodes[name].Decl) {
			roots = append(roots, name)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Reachability follows every function a reachable body names, not
	// only the ones it calls: passing a function as a value can still
	// execute it inside the canonical path.
	reachable := graph.Reachable(roots)
	for _, name := range names {
		if reachable[name] {
			checkFunc(pass, graph.Nodes[name].Decl)
		}
	}
	return nil
}

func isRoot(fd *ast.FuncDecl) bool {
	switch fd.Name.Name {
	case "CanonicalJSON", "Fingerprint":
		return true
	}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, "//aarc:canonical") {
				return true
			}
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	markers := pass.Markers()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, fd, n)
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if _, ok := markers.At(pass.Fset, n.Pos(), "sorted"); ok {
				return true
			}
			if isMapToMapCopy(pass, n) || sortsAfter(pass, fd, n.Pos()) {
				return true
			}
			pass.Reportf(n.Pos(), "map iteration order can reach canonical output from %s; sort the keys first or mark //aarc:sorted <reason>", fd.Name.Name)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch analysis.PkgPathOf(fn) {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now in canonicalization path %s: fingerprints must be pure functions of content", fd.Name.Name)
		}
	case "math/rand", "math/rand/v2":
		if fn.Signature().Recv() == nil {
			pass.Reportf(call.Pos(), "global math/rand source in canonicalization path %s: use an explicitly seeded generator outside the canonical bytes", fd.Name.Name)
		}
	}
	// Keys() listings are unordered by the Store contract.
	if fn.Name() == "Keys" && fn.Signature().Recv() != nil {
		if _, ok := pass.Markers().At(pass.Fset, call.Pos(), "sorted"); ok {
			return
		}
		if sortsAfter(pass, fd, call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(), "Keys() order is unspecified and reaches canonical output from %s; sort the result or mark //aarc:sorted <reason>", fd.Name.Name)
	}
}

// isMapToMapCopy reports whether every statement in the range body only
// assigns into map index expressions — re-keying entries into another
// map, where source order cannot be observed.
func isMapToMapCopy(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, lhs := range as.Lhs {
			ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				return false
			}
			t := pass.TypesInfo.TypeOf(ix.X)
			if t == nil {
				return false
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return false
			}
		}
	}
	return true
}

// sorting names the package sort functions, and the Sort method of its
// slice types, that order a slice in place. Searching or checking
// sortedness orders nothing.
var sorting = map[string]bool{
	"Sort":        true,
	"Stable":      true,
	"Slice":       true,
	"SliceStable": true,
	"Strings":     true,
	"Ints":        true,
	"Float64s":    true,
}

// sortsAfter reports whether fd sorts (one of sorting, or slices.Sort*)
// after pos — the "collect then order" idiom that makes an unordered
// iteration or listing deterministic before it escapes.
func sortsAfter(pass *analysis.Pass, fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || found {
			return !found
		}
		fn := analysis.FuncOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch analysis.PkgPathOf(fn) {
		case "sort":
			found = sorting[fn.Name()]
		case "slices":
			found = strings.HasPrefix(fn.Name(), "Sort")
		}
		return !found
	})
	return found
}
