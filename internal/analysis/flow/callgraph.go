package flow

// The call-graph builder. aarcvet runs one package at a time under the
// go vet protocol, so the graph is per-package: nodes are this
// package's function declarations, edges are the statically resolvable
// calls they make — including calls into other packages, which appear
// only as callee names. Cross-package closure happens in the analyzers,
// which export per-function summaries as unitchecker facts and splice
// the imported packages' summaries in by name.
//
// Function-literal bodies are attributed to the enclosing declaration:
// a goroutine or callback launched inside a method allocates on behalf
// of that method, and the fact granularity (one summary per declared
// function) follows the call sites an importing package can actually
// name.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"aarc/internal/analysis"
)

// A Node is one declared function or method and what its body names.
type Node struct {
	// Decl is the declaration; never nil.
	Decl *ast.FuncDecl
	// Calls are the resolved call sites in body order (function-literal
	// bodies inlined in source order).
	Calls []Call
	// Refs are the full names of every function or method the body
	// mentions, called or taken as a value, in body order. A function
	// passed as a value can still run on the caller's path, so
	// Reachable follows Refs rather than Calls.
	Refs []string
}

// A Call is one statically resolved call site.
type Call struct {
	// Callee is the target's full name, as FullName produces it.
	Callee string
	// Fn is the target object ("statically resolved" is the condition
	// for the call being recorded at all, so never nil).
	Fn *types.Func
	// Site is the call expression.
	Site *ast.CallExpr
}

// A CallGraph maps full function names to their nodes. A package may
// declare any number of init functions, which nothing can call; each
// gets its own node, keyed "pkgpath.init.0", "pkgpath.init.1", ... in
// file order, as the compiler numbers them.
type CallGraph struct {
	Nodes map[string]*Node
}

// FullName names a function for cross-package matching:
// "pkgpath.Func" for package functions, "pkgpath.(Recv).Method" for
// methods (pointer stars dropped, so value and pointer receivers of
// one type collide deliberately — lock and alloc summaries do not
// care which receiver form the callee declared).
func FullName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// BuildCallGraph walks the package's declarations and resolves every
// static call and function reference. info needs Uses and Defs
// populated.
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{Nodes: map[string]*Node{}}
	inits := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			name := FullName(fn)
			if fd.Recv == nil && fd.Name.Name == "init" {
				name = fmt.Sprintf("%s.%d", name, inits)
				inits++
			}
			node := &Node{Decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if callee := analysis.FuncOf(info, n); callee != nil {
						node.Calls = append(node.Calls, Call{Callee: FullName(callee), Fn: callee, Site: n})
					}
				case *ast.Ident:
					if ref, ok := info.Uses[n].(*types.Func); ok {
						node.Refs = append(node.Refs, FullName(ref))
					}
				}
				return true
			})
			g.Nodes[name] = node
		}
	}
	return g
}

// Reachable returns the set of full names reachable from the given
// roots through this package's nodes' Refs, including the roots and
// every external name encountered.
func (g *CallGraph) Reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[name] {
			continue
		}
		seen[name] = true
		if node := g.Nodes[name]; node != nil {
			stack = append(stack, node.Refs...)
		}
	}
	return seen
}

// SortedNames returns the graph's node names in lexical order, for
// deterministic iteration.
func (g *CallGraph) SortedNames() []string {
	names := make([]string, 0, len(g.Nodes))
	for name := range g.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
