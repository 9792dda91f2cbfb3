// Package lockorder checks the serving stack's two lock invariants with
// one held-lock dataflow over each function's control-flow graph.
//
// Lock hygiene: no searching, store I/O, or workflow evaluation
// (Evaluate, EvaluateInto, EvaluateScale, MeanEvaluate) while a mutex is
// held. The deadlock class this encodes was found the hard way — a
// batch run attaching to a singleflight while a queue mutex was held,
// which only surfaced under load. The one sanctioned exception is a mutex that
// *owns* the callee — the runner-pool shards, where the shard mutex is
// exactly what makes a non-thread-safe Runner usable — and such sites
// carry an //aarc:locked <reason> marker. Tests can deadlock too, so this
// check covers _test.go files and _test packages.
//
// Leaf locks: in non-test code, no classed mutex is acquired while
// another may be held. Every mutex in the serving stack is a leaf lock
// (DESIGN.md §14), and locks that never nest cannot deadlock on order.
// The rule is checked one package at a time, which misses nothing
// while every mutex is an unexported, unembedded field or package
// variable: only its own package can lock it, so a nesting in package P
// holds a lock of P and takes one of P or, through a call, one of a
// package P imports, and an order cycle across packages would need an
// import cycle. The waiver is //aarc:lockorder <reason> on the acquire
// or call site.
//
// Both rules follow same-package calls. Each function gets two
// summaries: the first forbidden operation it makes on its own goroutine
// outside an //aarc:locked waiver, and the first classed lock it
// acquires there, each closed over the static calls it makes to
// same-package functions on that goroutine. A call made while a mutex
// may be held counts as what its callee's summary names.
//
// The held-lock analysis runs flow.Analysis once per function body and
// once per function literal. Its state is the set of locks that may be
// held: Lock/RLock adds, Unlock/RUnlock removes, a join takes the union
// of the incoming sets, and `defer mu.Unlock()` keeps the lock held to
// the function's exit. A held lock is keyed by its printed receiver
// (s.mu): that key is what a release matches and what a finding names.
// It also carries its class, the declaration site of the mutex —
// "pkgpath.(Type).field" for mutex fields, "pkgpath.var" for
// package-level mutexes. Two shards of one pool share a class, so
// locking one shard while holding another is reported: acquiring two
// instances of one class in arbitrary order is the classic sharded
// deadlock. Function-local mutexes have no class; they count for
// hygiene but not for the leaf rule. The body of a `go` literal starts
// with nothing held, and what it acquires or calls stays out of the
// spawner's summaries: a goroutine's locks are held on its own stack.
// Any other literal starts with the set held where it appears (a
// literal built under a lock is overwhelmingly run under it:
// sort.Slice callbacks, inline wrappers).
package lockorder

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flag search/store/evaluate calls made while a mutex is held, and a mutex acquired while another is held (every mutex is a leaf lock)",
	Run:  run,
}

// heldLock is one lock that may be held: key is the printed receiver,
// class the declaration site ("" for a function-local mutex).
type heldLock struct {
	key, class string
}

// lockSet is the dataflow state: the locks that may be held, sorted.
// Sets are never modified once built, so states and records share them.
type lockSet []heldLock

func (s lockSet) with(l heldLock) lockSet {
	if slices.Contains(s, l) {
		return s
	}
	out := append(slices.Clone(s), l)
	slices.SortFunc(out, func(a, b heldLock) int {
		return cmp.Or(strings.Compare(a.key, b.key), strings.Compare(a.class, b.class))
	})
	return out
}

func (s lockSet) without(key string) lockSet {
	return slices.DeleteFunc(slices.Clone(s), func(l heldLock) bool { return l.key == key })
}

// classed returns the locks in s that have a class.
func (s lockSet) classed() lockSet {
	return slices.DeleteFunc(slices.Clone(s), func(l heldLock) bool { return l.class == "" })
}

// names renders the held keys for a finding: the smallest, and a note
// when there are more (there is almost always exactly one).
func (s lockSet) names() string {
	for _, l := range s[1:] {
		if l.key != s[0].key {
			return s[0].key + " (and others)"
		}
	}
	return s[0].key
}

type lattice struct{}

func (lattice) Bottom() lockSet { return nil }

func (lattice) Join(a, b lockSet) lockSet {
	for _, l := range b {
		a = a.with(l)
	}
	return a
}

func (lattice) Equal(a, b lockSet) bool { return slices.Equal(a, b) }

// acquire is one direct acquisition of a classed lock.
type acquire struct {
	lock heldLock
	pos  token.Pos
	held lockSet // locks that may be held just before
	// detached marks acquisitions on a goroutine the function spawns:
	// they are checked against that goroutine's own held set and stay
	// out of the spawner's summary.
	detached bool
}

// callsite is one statically resolved call.
type callsite struct {
	callee   string
	pos      token.Pos
	held     lockSet
	detached bool
	// what names the operation lock hygiene forbids that the call itself
	// is ("store I/O", ...); "" for none.
	what string
}

// funcSummary is what one declaration, literals included, records for
// both rules.
type funcSummary struct {
	name     string
	test     bool // declared in a _test.go file: hygiene only
	acquires []acquire
	calls    []callsite
}

// body is one function body awaiting the held-lock analysis.
type body struct {
	block    *ast.BlockStmt
	entry    lockSet
	detached bool
}

// checker analyzes one declaration: its body, then every function
// literal found while replaying it, each from the state where the
// literal appears.
type checker struct {
	info    *types.Info
	sum     *funcSummary
	pending []body
}

func run(pass *analysis.Pass) error {
	var sums []*funcSummary
	for _, f := range pass.Files {
		test := analysis.IsTestFile(pass.Fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			c := &checker{info: pass.TypesInfo, sum: &funcSummary{name: fullName(fn), test: test}, pending: []body{{block: fd.Body}}}
			for len(c.pending) > 0 {
				b := c.pending[0]
				c.pending = c.pending[1:]
				c.analyze(b)
			}
			sums = append(sums, c.sum)
		}
	}

	does := closeOverCalls(sums, func(s *funcSummary) string {
		for _, c := range s.calls {
			if c.what == "" || c.detached {
				continue
			}
			if _, waived := pass.Markers().At(pass.Fset, c.pos, "locked"); !waived {
				return c.what
			}
		}
		return ""
	})
	locks := closeOverCalls(sums, func(s *funcSummary) string {
		for _, a := range s.acquires {
			if !a.detached {
				return a.lock.class
			}
		}
		return ""
	})
	for _, s := range sums {
		for _, c := range s.calls {
			checkHygiene(pass, c, does[c.callee])
		}
		if s.test {
			continue
		}
		for _, a := range s.acquires {
			checkLeaf(pass, a.pos, a.held, a.lock.key)
		}
		for _, c := range s.calls {
			if l := locks[c.callee]; l != "" {
				checkLeaf(pass, c.pos, c.held, fmt.Sprintf("%s (in %s)", analysis.ShortName(l), analysis.ShortName(c.callee)))
			}
		}
	}
	return nil
}

// closeOverCalls names, per function, the first thing own finds in it
// or in a same-package function it calls on its own goroutine, through
// any chain of such calls. Declarations sharing a name (a package's
// init functions) share one entry.
func closeOverCalls(sums []*funcSummary, own func(*funcSummary) string) map[string]string {
	has := map[string]string{}
	for _, s := range sums {
		if what := own(s); what != "" && has[s.name] == "" {
			has[s.name] = what
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if has[s.name] != "" {
				continue
			}
			for _, c := range s.calls {
				if what := has[c.callee]; what != "" && !c.detached {
					has[s.name] = what
					changed = true
					break
				}
			}
		}
	}
	return has
}

// checkHygiene reports c when it is made while a mutex may be held and
// is a search, store I/O or an evaluation, or calls a same-package
// function that does one (does), unless an //aarc:locked waiver covers
// it.
func checkHygiene(pass *analysis.Pass, c callsite, does string) {
	what := c.what
	if what == "" && does != "" {
		what = fmt.Sprintf("%s (in %s)", does, analysis.ShortName(c.callee))
	}
	if what == "" || len(c.held) == 0 || waived(pass, c.pos, "locked") {
		return
	}
	pass.Reportf(c.pos, "%s while holding mutex %s can deadlock or serialize the serving path; move it outside the critical section or mark //aarc:locked <reason>", what, c.held.names())
}

// checkLeaf reports acquiring lock at pos while a classed mutex may be
// held, unless an //aarc:lockorder waiver covers the site.
func checkLeaf(pass *analysis.Pass, pos token.Pos, held lockSet, lock string) {
	held = held.classed()
	if len(held) == 0 || waived(pass, pos, "lockorder") {
		return
	}
	pass.Reportf(pos, "acquiring mutex %s while holding mutex %s: every mutex is a leaf lock (DESIGN.md §14); release the held one first or mark //aarc:lockorder <reason>", lock, held.names())
}

// waived reports whether an //aarc:<kind> marker covers pos, reporting
// one that gives no reason.
func waived(pass *analysis.Pass, pos token.Pos, kind string) bool {
	m, ok := pass.Markers().At(pass.Fset, pos, kind)
	if ok && m.Arg == "" {
		pass.Reportf(pos, "//aarc:%s marker needs a reason", kind)
	}
	return ok
}

// analyze runs the held-lock dataflow over one body, then replays each
// block from its fixpoint in-state to record calls and acquisitions,
// the way nilness reports.
func (c *checker) analyze(b body) {
	g := flow.New(b.block)
	res := flow.Analysis[lockSet]{
		Lattice: lattice{},
		Entry:   b.entry,
		Transfer: func(blk *flow.Block, held lockSet) lockSet {
			for _, s := range blk.Stmts {
				_, l, dir := c.lockOp(s)
				held = update(held, l, dir)
			}
			return held
		},
	}.Forward(g)
	for _, blk := range g.Blocks {
		held := res.In[blk.Index]
		for _, s := range blk.Stmts {
			call, l, dir := c.lockOp(s)
			if dir == 0 {
				c.scan(s, held, b.detached)
				continue
			}
			if dir > 0 && l.class != "" {
				c.sum.acquires = append(c.sum.acquires, acquire{l, call.Pos(), held, b.detached})
			}
			held = update(held, l, dir)
		}
		if blk.Cond != nil {
			c.scan(blk.Cond, held, b.detached)
		}
	}
}

// update applies one lock operation to the held set.
func update(held lockSet, l heldLock, dir int) lockSet {
	switch {
	case dir > 0:
		return held.with(l)
	case dir < 0:
		return held.without(l.key)
	}
	return held
}

// lockOp classifies a statement that locks (dir +1) or unlocks (-1) a
// sync mutex. A deferred unlock runs at exit, so it changes nothing
// here; the lock stays held for the rest of the body.
func (c *checker) lockOp(s ast.Stmt) (*ast.CallExpr, heldLock, int) {
	var call *ast.CallExpr
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	}
	if call == nil {
		return nil, heldLock{}, 0
	}
	l, dir := c.lockCall(call)
	if _, deferred := s.(*ast.DeferStmt); deferred && dir < 0 {
		dir = 0
	}
	return call, l, dir
}

// scan records the calls n makes with held locks, and queues the
// function literals it builds. A range statement sits whole in its loop
// head, so only its range expression is scanned there.
func (c *checker) scan(n ast.Node, held lockSet, detached bool) {
	switch s := n.(type) {
	case *ast.RangeStmt:
		n = s.X
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			c.scan(arg, held, detached)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			c.pending = append(c.pending, body{block: lit.Body, detached: true})
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			c.pending = append(c.pending, body{x.Body, held, detached})
			return false
		case *ast.CallExpr:
			if _, dir := c.lockCall(x); dir != 0 {
				return true // lock calls nested in expressions are not tracked
			}
			fn := analysis.FuncOf(c.info, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			c.sum.calls = append(c.sum.calls, callsite{fullName(fn), x.Pos(), held, detached, forbidden(fn)})
		}
		return true
	})
}

// forbidden names the operation fn is when it is one lock hygiene
// forbids under a mutex: a search, store I/O or a workflow evaluation;
// "" otherwise. Store I/O is a store method or one of the package's
// readers over a Store (Peek, Contains).
func forbidden(fn *types.Func) string {
	method := fn.Signature().Recv() != nil
	switch pkg := fn.Pkg().Name(); fn.Name() {
	case "Search":
		if method {
			return "a search"
		}
	case "Get", "Put", "Delete", "Keys", "Warm":
		if method && pkg == "store" {
			return "store I/O"
		}
	case "Peek", "Contains":
		if !method && pkg == "store" {
			return "store I/O"
		}
	case "Evaluate", "EvaluateInto", "EvaluateScale", "MeanEvaluate":
		if method && pkg == "workflow" {
			return "a workflow evaluation"
		}
	}
	return ""
}

// lockCall classifies Lock/RLock (+1) and Unlock/RUnlock (-1) calls on
// sync mutexes; dir 0 for everything else.
func (c *checker) lockCall(call *ast.CallExpr) (heldLock, int) {
	fn := analysis.FuncOf(c.info, call)
	if fn == nil || fn.Signature().Recv() == nil || analysis.PkgPathOf(fn) != "sync" {
		return heldLock{}, 0
	}
	dir := 0
	switch fn.Name() {
	case "Lock", "RLock":
		dir = +1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return heldLock{}, 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, 0
	}
	return heldLock{key: types.ExprString(sel.X), class: c.lockClass(sel.X)}, dir
}

// lockClass names the mutex expression by declaration site, or ""
// when it is function-local or unresolvable.
func (c *checker) lockClass(e ast.Expr) string {
	info := c.info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// A field: name it by the owning named type.
		if selInfo, ok := info.Selections[e]; ok {
			t := selInfo.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return fmt.Sprintf("%s.(%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), e.Sel.Name)
			}
		}
		// Qualified package-level var (pkg.mu).
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.IndexExpr:
		return c.lockClass(e.X)
	}
	return ""
}

// fullName names a function to match call sites to summaries:
// "pkgpath.Func" for package functions, "pkgpath.(Recv).Method" for
// methods (pointer stars dropped, so value and pointer receivers of
// one type collide deliberately — a summary does not care which
// receiver form the callee declared).
func fullName(fn *types.Func) string {
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
