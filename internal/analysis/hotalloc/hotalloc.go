// Package hotalloc machine-checks the 0-alloc discipline of the
// serving fast paths — the ~44 ns GET /v1/recommendation/{fp} hit
// path is the repository's headline number, and one stray closure or
// fmt call quietly turns it into a GC-visible path. A function marked
//
//	//aarc:hotpath
//
// is a root: neither it nor anything it transitively calls (through
// the static call graph, across packages via unitchecker facts) may
// contain heap-escaping constructs:
//
//   - function literals (closure allocation);
//   - map/slice composite literals and &T{} (heap-escaping composites;
//     a plain struct value T{} stays on the stack and is fine);
//   - make and new;
//   - append (amortized growth is still allocation);
//   - string ⇄ []byte/[]rune conversions;
//   - passing a non-pointer concrete value to an interface parameter
//     (boxing);
//   - any call into fmt, encoding/json, or sort (all allocate by
//     design). Other stdlib callees are trusted clean — the contract
//     is about the project's own code.
//
// Dynamic calls (interface methods, func values) cannot be expanded
// statically and are skipped; the contract is that every concrete
// implementation backing a hot path carries its own //aarc:hotpath
// (store.Memory.Get and store.Tiered.Get do), and the
// AllocsPerRun twin tests in internal/service and internal/store pin
// the same paths at run time. The waiver for a deliberate allocation
// is //aarc:coldalloc <reason> on the offending line.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name:  "hotalloc",
	Doc:   "enforce zero heap allocations in //aarc:hotpath functions and everything they transitively call",
	Run:   run,
	Facts: true,
}

// denied are the stdlib packages that always allocate; calling into
// them on a hot path is itself the violation.
var denied = map[string]bool{
	"fmt":           true,
	"encoding/json": true,
	"sort":          true,
}

// Alloc is one heap-escaping construct, positioned printably so the
// record survives the trip through a fact file.
type Alloc struct {
	What string `json:"what"`
	At   string `json:"at"`
}

// Summary is one function's allocation summary.
type Summary struct {
	Allocs []Alloc  `json:"allocs,omitempty"`
	Calls  []string `json:"calls,omitempty"`
}

// Fact is a package's exported view: summaries for its own functions
// merged with everything its dependencies exported, so importers
// resolve transitive callees against direct imports' facts alone.
type Fact struct {
	Funcs map[string]Summary `json:"funcs,omitempty"`
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return nil
	}

	// Merge imported summaries.
	known := map[string]Summary{}
	for path := range pass.Facts {
		var f Fact
		if !pass.ImportFact(path, &f) {
			continue
		}
		for name, s := range f.Funcs {
			known[name] = s
		}
	}

	graph := flow.BuildCallGraph(pass.NonTestFiles(), pass.TypesInfo)

	// Local summaries: direct allocs (positions kept for reporting)
	// plus expandable callees.
	type localAlloc struct {
		what string
		pos  token.Pos
	}
	localAllocs := map[string][]localAlloc{}
	localCalls := map[string][]flow.Call{}
	for _, name := range graph.SortedNames() {
		node := graph.Nodes[name]
		var allocs []localAlloc
		collectAllocs(pass, node.Decl.Body, func(what string, pos token.Pos) {
			allocs = append(allocs, localAlloc{what, pos})
		})
		for _, c := range node.Calls {
			if denied[analysis.PkgPathOf(c.Fn)] {
				allocs = append(allocs, localAlloc{"call into " + analysis.PkgPathOf(c.Fn), c.Site.Pos()})
			}
		}
		localAllocs[name] = allocs
		localCalls[name] = node.Calls
	}

	// Roots: //aarc:hotpath on the declaration line (or above it).
	var roots []string
	for _, name := range graph.SortedNames() {
		node := graph.Nodes[name]
		if _, ok := pass.Markers().At(pass.Fset, node.Decl.Pos(), "hotpath"); ok {
			roots = append(roots, name)
		}
	}

	// Walk each root's transitive closure. Local allocs report at
	// their own position; allocs inside another package report at the
	// local call site whose edge reaches them.
	for _, root := range roots {
		seen := map[string]bool{}
		var visit func(name string)
		visit = func(name string) {
			if seen[name] {
				return
			}
			seen[name] = true
			if _, local := graph.Nodes[name]; local {
				for _, a := range localAllocs[name] {
					report(pass, a.pos, root, "%s", a.what)
				}
				for _, c := range localCalls[name] {
					if _, isLocal := graph.Nodes[c.Callee]; isLocal {
						visit(c.Callee)
						continue
					}
					if ext, ok := known[c.Callee]; ok {
						for _, a := range externAllocs(c.Callee, ext, known, map[string]bool{}) {
							report(pass, c.Site.Pos(), root, "call to %s which allocates (%s at %s)", analysis.ShortName(c.Callee), a.What, a.At)
						}
					}
					// Unknown callee (stdlib outside the denylist,
					// interface method): trusted clean by contract.
				}
			}
		}
		visit(root)
	}

	// Export: local summaries (printable form) merged over the
	// imported ones.
	out := Fact{Funcs: map[string]Summary{}}
	for name, s := range known {
		out.Funcs[name] = s
	}
	for _, name := range graph.SortedNames() {
		var s Summary
		for _, a := range localAllocs[name] {
			// Waived allocations stay out of the exported summary too:
			// the reason was reviewed where the allocation lives.
			if m, ok := pass.Markers().At(pass.Fset, a.pos, "coldalloc"); ok && m.Arg != "" {
				continue
			}
			s.Allocs = append(s.Allocs, Alloc{What: a.what, At: pass.Fset.Position(a.pos).String()})
		}
		calleeSet := map[string]bool{}
		for _, c := range localCalls[name] {
			if _, isLocal := graph.Nodes[c.Callee]; isLocal {
				calleeSet[c.Callee] = true
			} else if _, ok := known[c.Callee]; ok {
				calleeSet[c.Callee] = true
			}
		}
		for callee := range calleeSet {
			s.Calls = append(s.Calls, callee)
		}
		sort.Strings(s.Calls)
		out.Funcs[name] = s
	}
	if pass.ExportFact != nil {
		pass.ExportFact(out)
	}
	return nil
}

// externAllocs gathers the allocations reachable from an external
// function through the fact map.
func externAllocs(name string, s Summary, known map[string]Summary, seen map[string]bool) []Alloc {
	if seen[name] {
		return nil
	}
	seen[name] = true
	out := append([]Alloc(nil), s.Allocs...)
	for _, callee := range s.Calls {
		if ext, ok := known[callee]; ok {
			out = append(out, externAllocs(callee, ext, known, seen)...)
		}
	}
	return out
}

func report(pass *analysis.Pass, pos token.Pos, root string, format string, args ...any) {
	if m, ok := pass.Markers().At(pass.Fset, pos, "coldalloc"); ok {
		if m.Arg == "" {
			pass.Reportf(pos, "//aarc:coldalloc marker needs a reason")
		}
		return
	}
	msg := fmt.Sprintf(format, args...)
	pass.Reportf(pos, "%s on //aarc:hotpath path rooted at %s; hoist the allocation off the fast path or mark //aarc:coldalloc <reason>", msg, analysis.ShortName(root))
}

// collectAllocs walks a body and reports every heap-escaping
// construct. Function-literal interiors are walked too — the literal
// itself is already a violation, but naming what is inside helps.
func collectAllocs(pass *analysis.Pass, body *ast.BlockStmt, emit func(what string, pos token.Pos)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			emit("closure", n.Pos())
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				emit("map literal", n.Pos())
			case *types.Slice:
				emit("slice literal", n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					emit("heap-escaping &composite literal", n.Pos())
				}
			}
		case *ast.CallExpr:
			collectCallAllocs(pass, n, emit)
		}
		return true
	})
}

// collectCallAllocs classifies one call expression: allocating
// builtins, allocating conversions, and interface boxing at the
// argument list.
func collectCallAllocs(pass *analysis.Pass, call *ast.CallExpr, emit func(string, token.Pos)) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				emit("make", call.Pos())
			case "new":
				emit("new", call.Pos())
			case "append":
				emit("append", call.Pos())
			}
			return
		}
	}

	// Conversions: T(x) where Fun denotes a type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type.Underlying(), pass.TypesInfo.TypeOf(call.Args[0])
		if src != nil && allocatingConversion(dst, src.Underlying()) {
			emit("string conversion", call.Pos())
		}
		return
	}

	// Interface boxing: a non-pointer concrete argument passed to an
	// interface parameter.
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig := fn.Signature()
	for i, arg := range call.Args {
		var param *types.Var
		if i < sig.Params().Len() {
			param = sig.Params().At(i)
		} else if sig.Variadic() && sig.Params().Len() > 0 {
			param = sig.Params().At(sig.Params().Len() - 1)
		}
		if param == nil {
			continue
		}
		pt := param.Type()
		if s, ok := pt.(*types.Slice); ok && sig.Variadic() && i >= sig.Params().Len()-1 {
			pt = s.Elem()
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue // already boxed, or a pointer (no copy to heap)
		}
		if bt, ok := pass.TypesInfo.Types[arg]; ok && bt.Value != nil {
			continue // untyped constants box into small shared cells
		}
		emit("interface boxing", arg.Pos())
	}
}

// allocatingConversion reports string⇄[]byte and string⇄[]rune.
func allocatingConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
