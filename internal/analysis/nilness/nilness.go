// Package nilness is the stdlib-only port of the SSA-based nilness
// check DESIGN.md §13 used to gate out: a forward dataflow analysis
// over the flow package's CFG that tracks, per local variable, whether
// it is definitely nil, definitely non-nil, or unknown, refining along
// branch edges (`if x == nil` makes x nil on the true edge and non-nil
// on the false edge). It reports only *guaranteed* misuse — a
// dereference, map write, or call through a variable that is provably
// nil on some path — never "might be nil", which keeps it quiet enough
// to run with no baseline.
//
// Tracked variables are the function's own: parameters and locals of
// pointer, map, function, chan, slice, or interface type declared in
// the body under analysis. Variables whose address is taken or that a
// function literal captures go permanently unknown — anything could
// write to them. The waiver is //aarc:nilok <reason>.
package nilness

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "nilness",
	Doc:  "flag guaranteed-nil dereferences, nil map writes, and calls through nil function values",
	Run:  run,
}

// state is one variable's abstract nilness.
type state uint8

const (
	unknown state = iota // could be anything (top)
	isNil
	nonNil
)

func join(a, b state) state {
	if a == b {
		return a
	}
	return unknown
}

// env maps tracked variables to states. nil env = unreached (bottom).
type env map[*types.Var]state

type envLattice struct{}

func (envLattice) Bottom() env { return nil }

func (envLattice) Join(a, b env) env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(env, len(a))
	for v, s := range a {
		if sb, ok := b[v]; ok {
			out[v] = join(s, sb)
		} else {
			out[v] = s // declared on one path only: scope keeps uses legal
		}
	}
	for v, s := range b {
		if _, ok := a[v]; !ok {
			out[v] = s
		}
	}
	return out
}

func (envLattice) Equal(a, b env) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for v, s := range a {
		if sb, ok := b[v]; !ok || sb != s {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return nil
	}
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			var sig *types.Signature
			if fn != nil {
				sig = fn.Signature()
			}
			checkFunc(pass, fd.Body, sig)
			// Function literals get their own analysis; variables they
			// capture from here are untracked there.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					litSig, _ := pass.TypesInfo.Types[lit].Type.(*types.Signature)
					checkFunc(pass, lit.Body, litSig)
				}
				return true
			})
		}
	}
	return nil
}

// checker carries one function's analysis context.
type checker struct {
	pass    *analysis.Pass
	body    *ast.BlockStmt
	tracked map[*types.Var]bool
	escaped map[*types.Var]bool
	seen    map[token.Pos]bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, sig *types.Signature) {
	c := &checker{
		pass:    pass,
		body:    body,
		tracked: map[*types.Var]bool{},
		escaped: map[*types.Var]bool{},
		seen:    map[token.Pos]bool{},
	}

	entry := env{}
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if v := sig.Params().At(i); c.nilable(v.Type()) {
				c.tracked[v] = true
				entry[v] = unknown
			}
		}
		if recv := sig.Recv(); recv != nil && c.nilable(recv.Type()) {
			c.tracked[recv] = true
			entry[recv] = unknown
		}
	}
	// Locals declared in this body, plus the escape analysis: &x and
	// closure captures pin a variable at unknown forever.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Defs[n].(*types.Var); ok && c.nilable(v.Type()) && !v.IsField() {
				c.tracked[v] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						c.escaped[v] = true
					}
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						c.escaped[v] = true
					}
				}
			}
		case *ast.FuncLit:
			// Everything the literal mentions from outside it escapes.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						c.escaped[v] = true
					}
				}
				return true
			})
			return true
		}
		return true
	})

	g := flow.New(body)
	res := flow.Analysis[env]{
		Lattice:  envLattice{},
		Entry:    entry,
		Transfer: c.transfer,
		Edge:     c.refine,
	}.Forward(g)

	// Report pass: replay each block from its fixpoint in-state,
	// checking every expression before applying the statement's
	// effects (the write to a nil map happens before the map becomes
	// anything else).
	for _, b := range g.Blocks {
		cur := res.In[b.Index]
		if cur == nil && b.Index != 0 {
			continue // unreached
		}
		if cur == nil {
			cur = env{}
		}
		for _, s := range b.Stmts {
			c.checkStmt(s, cur)
			cur = c.apply(s, cur)
		}
		if b.Cond != nil {
			c.checkExpr(b.Cond, cur)
		}
	}
}

// nilable reports whether the type has a nil zero value worth
// tracking.
func (c *checker) nilable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Signature, *types.Chan, *types.Slice, *types.Interface:
		return true
	}
	return false
}

// transfer applies a block's statements to the incoming environment.
func (c *checker) transfer(b *flow.Block, in env) env {
	if in == nil && b.Index != 0 {
		return nil // unreached stays bottom
	}
	cur := in
	for _, s := range b.Stmts {
		cur = c.apply(s, cur)
	}
	return cur
}

// apply returns the environment after one (CFG-simple) statement.
func (c *checker) apply(s ast.Stmt, in env) env {
	switch s := s.(type) {
	case *ast.AssignStmt:
		out := copyEnv(in)
		for i, lhs := range s.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v := c.varOf(id)
			if v == nil {
				continue
			}
			if len(s.Lhs) == len(s.Rhs) {
				out[v] = c.eval(s.Rhs[i], in)
			} else {
				out[v] = unknown // multi-value unpack
			}
		}
		return out
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return in
		}
		out := copyEnv(in)
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				v := c.varOf(id)
				if v == nil {
					continue
				}
				switch {
				case len(vs.Values) == len(vs.Names):
					out[v] = c.eval(vs.Values[i], in)
				case len(vs.Values) == 0:
					out[v] = isNil // var m map[...]...: zero value
				default:
					out[v] = unknown
				}
			}
		}
		return out
	case *ast.RangeStmt:
		out := copyEnv(in)
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if id, ok := e.(*ast.Ident); ok {
				if v := c.varOf(id); v != nil {
					out[v] = unknown
				}
			}
		}
		return out
	}
	return in
}

func copyEnv(in env) env {
	out := make(env, len(in)+1)
	for v, s := range in {
		out[v] = s
	}
	return out
}

// varOf resolves an identifier to a tracked, unescaped variable.
func (c *checker) varOf(id *ast.Ident) *types.Var {
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !c.tracked[v] || c.escaped[v] {
		return nil
	}
	return v
}

// eval classifies the nilness of an expression's value.
func (c *checker) eval(e ast.Expr, in env) state {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			if _, isBuiltin := c.pass.TypesInfo.Uses[e].(*types.Nil); isBuiltin {
				return isNil
			}
		}
		if v := c.varOf(e); v != nil {
			if s, ok := in[v]; ok {
				return s
			}
		}
		return unknown
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return nonNil
		}
	case *ast.CompositeLit, *ast.FuncLit:
		return nonNil
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make", "new":
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return nonNil
				}
			}
		}
	}
	return unknown
}

// refine sharpens the state along a branch edge when the condition is
// a nil comparison on a tracked variable.
func (c *checker) refine(from, to *flow.Block, out env) env {
	if from.Cond == nil || len(from.Succs) != 2 || out == nil {
		return out
	}
	bin, ok := ast.Unparen(from.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return out
	}
	var id *ast.Ident
	if x, ok := ast.Unparen(bin.X).(*ast.Ident); ok && c.isNilIdent(bin.Y) {
		id = x
	} else if y, ok := ast.Unparen(bin.Y).(*ast.Ident); ok && c.isNilIdent(bin.X) {
		id = y
	}
	if id == nil {
		return out
	}
	v := c.varOf(id)
	if v == nil {
		return out
	}
	onTrue := from.Succs[0] == to
	s := isNil
	if (bin.Op == token.EQL) != onTrue {
		s = nonNil
	}
	refined := copyEnv(out)
	refined[v] = s
	return refined
}

func (c *checker) isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Nil)
	return isBuiltin
}

// checkStmt reports guaranteed-nil misuse in one statement under env.
func (c *checker) checkStmt(s ast.Stmt, cur env) {
	// The range statement sits whole in its head block but its body's
	// statements live in their own blocks with their own states; only
	// the header expression is checked here.
	if rs, ok := s.(*ast.RangeStmt); ok {
		c.checkExpr(rs.X, cur)
		return
	}
	// Nil map write: m[k] = v with m provably nil.
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(ix.X).(*ast.Ident)
			if !ok {
				continue
			}
			v := c.varOf(id)
			if v == nil || cur[v] != isNil {
				continue
			}
			if _, isMap := v.Type().Underlying().(*types.Map); isMap {
				c.report(ix.Pos(), "write to nil map %s", id.Name)
			}
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed separately
		}
		if e, ok := n.(ast.Expr); ok {
			c.checkOneExpr(e, cur)
		}
		return true
	})
}

func (c *checker) checkExpr(e ast.Expr, cur env) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if x, ok := n.(ast.Expr); ok {
			c.checkOneExpr(x, cur)
		}
		return true
	})
}

// checkOneExpr reports nil misuse at a single expression node.
func (c *checker) checkOneExpr(e ast.Expr, cur env) {
	switch e := e.(type) {
	case *ast.StarExpr:
		if v, id := c.nilVar(e.X, cur); v != nil {
			c.report(e.Pos(), "nil dereference of %s", id.Name)
		}
	case *ast.SelectorExpr:
		// x.f with x a provably nil pointer. (Selection on a package
		// name or a value receiver resolves varOf to nil.)
		if v, id := c.nilVar(e.X, cur); v != nil {
			if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
				c.report(e.Pos(), "nil dereference of %s.%s", id.Name, e.Sel.Name)
			}
		}
	case *ast.CallExpr:
		if v, id := c.nilVar(e.Fun, cur); v != nil {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				c.report(e.Pos(), "call of nil function %s", id.Name)
			}
		}
	case *ast.IndexExpr:
		// Reading a nil map yields the zero value legally; indexing a
		// nil slice or array pointer panics.
		if v, id := c.nilVar(e.X, cur); v != nil {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				c.report(e.Pos(), "index of nil slice %s", id.Name)
			}
		}
	}
}

// nilVar resolves e to a tracked variable that is provably nil here.
func (c *checker) nilVar(e ast.Expr, cur env) (*types.Var, *ast.Ident) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v := c.varOf(id)
	if v == nil || cur[v] != isNil {
		return nil, nil
	}
	return v, id
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	if m, ok := c.pass.Markers().At(c.pass.Fset, pos, "nilok"); ok {
		if m.Arg == "" {
			c.pass.Reportf(pos, "//aarc:nilok marker needs a reason")
		}
		return
	}
	c.pass.Reportf(pos, format+" (guaranteed on this path); add a nil check or mark //aarc:nilok <reason>", args...)
}
