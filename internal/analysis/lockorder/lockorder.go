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
// carry an //aarc:locked <reason> marker. A call to a same-package
// function that does one of these on its caller's goroutine — itself, or
// through further same-package calls, outside a waiver — counts as the
// operation: each function gets that summary, propagated over the static
// calls the lock-order graph records. Tests can deadlock too, so this
// check covers _test.go files and _test packages.
//
// Lock order: the whole-program lock-acquisition graph has no cycles —
// the static form of the deadlock-freedom claim DESIGN.md makes for the
// serving stack's mutexes (service shards, flightGroup).
// The graph is built from non-test code only. It is
// interprocedural: each package exports, as a unitchecker fact, the set
// of locks every function may transitively acquire and the
// acquired-while-held edges observed so far; importing packages
// splice those summaries into their own graphs, so an edge created by
// calling into another package (service holds Service.mu → store takes
// Memory.mu) materializes without re-analyzing the callee.
//
// The held-lock analysis runs flow.Analysis once per function body and
// once per function literal. Its state is the set of locks that may be
// held: Lock/RLock adds, Unlock/RUnlock removes, a join takes the union
// of the incoming sets, and `defer mu.Unlock()` keeps the lock held to
// the function's exit. A held lock is keyed by its printed receiver
// (s.mu): that key is what a release matches and what a hygiene finding
// names. It also carries its class, the declaration site that orders
// it — "pkgpath.(Type).field" for mutex fields, "pkgpath.var" for
// package-level mutexes. Two shards of one pool share a class, so a
// self-edge on a sharded lock is reported too: acquiring two instances
// of the same class in arbitrary order is the classic sharded deadlock.
// Function-local mutexes have no class; they count for hygiene but make
// no edges, since they cannot form a cross-function cycle. The body of
// a `go` literal starts with nothing held, and what it acquires or
// calls stays out of the spawner's may-acquire set: a goroutine's locks
// are ordered on its own stack. Any other literal starts with the set
// held where it appears (a literal built under a lock is overwhelmingly
// run under it: sort.Slice callbacks, inline wrappers).
//
// A cycle is reported once, at the smallest-position local edge
// participating in it. Cycles whose edges all come from imported facts
// are re-reported only in package main — the one place that sees every
// package and cannot be imported itself — so a cross-package cycle
// between siblings neither of which imports the other still surfaces.
// The waiver is //aarc:lockorder <reason> on the acquire (or call)
// site whose edge the cycle should not include.
package lockorder

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name:  "lockorder",
	Doc:   "flag search/store/publish/evaluate calls made while a mutex is held, and cycles in the cross-package lock-acquisition graph (potential deadlocks)",
	Run:   run,
	Facts: true,
}

// Fact is one package's contribution to the whole-program graph.
type Fact struct {
	// Acquires maps a function's full name (fullName) to the
	// lock classes it may transitively acquire on the calling
	// goroutine.
	Acquires map[string][]string `json:"acquires,omitempty"`
	// Edges are the acquired-while-held pairs observed in this package
	// and everything it imports.
	Edges []Edge `json:"edges,omitempty"`
}

// Edge records "To was acquired while From was held" at a source site.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// At is the printable position of the acquire or call site, for
	// cross-package cycle reports.
	At string `json:"at"`
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

// classes returns the distinct classes in s, sorted, skipping
// function-local locks.
func (s lockSet) classes() []string {
	var out []string
	for _, l := range s {
		if l.class != "" && !slices.Contains(out, l.class) {
			out = append(out, l.class)
		}
	}
	sort.Strings(out)
	return out
}

// names renders the held keys for a hygiene finding: the smallest, and
// a note when there are more (there is almost always exactly one).
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

// acquire is one direct lock acquisition of a classed lock.
type acquire struct {
	class string
	pos   token.Pos
	held  lockSet // locks that may be held just before
	// detached marks acquisitions on a goroutine the function spawns:
	// they order locks on that goroutine's stack but do not join the
	// spawner's synchronous may-acquire set.
	detached bool
}

// callsite is one statically resolved call.
type callsite struct {
	callee   string
	pos      token.Pos
	held     lockSet
	detached bool
	// direct marks a call that is itself a search, store I/O or an
	// evaluation: checkHygiene judges it, not checkHelpers.
	direct bool
}

// funcSummary is what one declaration, literals included, contributes
// to the lock-order graph and to lock hygiene.
type funcSummary struct {
	name     string
	acquires []acquire
	calls    []callsite
	// does names the first forbidden operation ("store I/O", ...) the
	// declaration makes itself on its own goroutine without an
	// //aarc:locked waiver; "" for none.
	does string
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
	pass    *analysis.Pass
	sum     *funcSummary
	pending []body
}

func run(pass *analysis.Pass) error {
	var sums, all []*funcSummary
	for _, f := range pass.Files {
		test := analysis.IsTestFile(pass.Fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			c := &checker{pass: pass, sum: &funcSummary{name: fullName(fn)}, pending: []body{{block: fd.Body}}}
			for len(c.pending) > 0 {
				b := c.pending[0]
				c.pending = c.pending[1:]
				c.analyze(b)
			}
			if fn != nil {
				all = append(all, c.sum)
				if !test {
					sums = append(sums, c.sum)
				}
			}
		}
	}
	checkHelpers(pass, all)
	checkOrder(pass, sums)
	return nil
}

// checkHelpers extends lock hygiene through same-package helpers. A
// function does a search, store I/O or an evaluation when it makes one
// itself (outside an //aarc:locked waiver and off any goroutine it
// spawns) or calls, on its own goroutine, a same-package function that
// does. A call to such a function while a mutex is held is reported, as
// the operation itself would be, unless an //aarc:locked waiver covers
// the call.
func checkHelpers(pass *analysis.Pass, sums []*funcSummary) {
	does := map[string]string{}
	for _, s := range sums {
		if s.does != "" && does[s.name] == "" {
			does[s.name] = s.does
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if does[s.name] != "" {
				continue
			}
			for _, c := range s.calls {
				if what := does[c.callee]; what != "" && !c.detached {
					does[s.name] = what
					changed = true
					break
				}
			}
		}
	}
	for _, s := range sums {
		for _, c := range s.calls {
			what := does[c.callee]
			if what == "" || c.direct || len(c.held) == 0 {
				continue
			}
			if m, ok := pass.Markers().At(pass.Fset, c.pos, "locked"); ok {
				if m.Arg == "" {
					pass.Reportf(c.pos, "//aarc:locked marker needs a reason")
				}
				continue
			}
			pass.Reportf(c.pos, "%s (in %s) while holding mutex %s can deadlock or serialize the serving path; move it outside the critical section or mark //aarc:locked <reason>", what, analysis.ShortName(c.callee), c.held.names())
		}
	}
}

// analyze runs the held-lock dataflow over one body, then replays each
// block from its fixpoint in-state to check calls and record
// acquisitions, the way nilness reports.
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
				c.sum.acquires = append(c.sum.acquires, acquire{l.class, call.Pos(), held, b.detached})
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

// scan checks and records the calls n makes with held locks, and
// queues the function literals it builds. A range statement sits whole
// in its loop head, so only its range expression is scanned there.
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
			fn := analysis.FuncOf(c.pass.TypesInfo, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			what := forbidden(fn)
			if what != "" && !detached && c.sum.does == "" {
				if _, waived := c.pass.Markers().At(c.pass.Fset, x.Pos(), "locked"); !waived {
					c.sum.does = what
				}
			}
			if what != "" && len(held) > 0 {
				c.checkHygiene(x, what, held)
			}
			c.sum.calls = append(c.sum.calls, callsite{fullName(fn), x.Pos(), held, detached, what != ""})
		}
		return true
	})
}

// forbidden names the operation fn is when it is one lock hygiene
// forbids under a mutex: a search, store I/O or a workflow evaluation;
// "" otherwise.
func forbidden(fn *types.Func) string {
	if fn.Signature().Recv() == nil {
		return ""
	}
	switch pkg := fn.Pkg().Name(); fn.Name() {
	case "Search":
		return "a search"
	case "Get", "Put", "Delete", "Keys", "Warm":
		if pkg == "store" {
			return "store I/O"
		}
	case "Evaluate", "EvaluateInto", "EvaluateScale", "MeanEvaluate":
		if pkg == "workflow" {
			return "a workflow evaluation"
		}
	}
	return ""
}

// checkHygiene reports call, the operation what, made while held, unless
// an //aarc:locked waiver covers it.
func (c *checker) checkHygiene(call *ast.CallExpr, what string, held lockSet) {
	pass := c.pass
	if m, ok := pass.Markers().At(pass.Fset, call.Pos(), "locked"); ok {
		if m.Arg == "" {
			pass.Reportf(call.Pos(), "//aarc:locked marker needs a reason")
		}
		return
	}
	pass.Reportf(call.Pos(), "%s while holding mutex %s can deadlock or serialize the serving path; move it outside the critical section or mark //aarc:locked <reason>", what, held.names())
}

// lockCall classifies Lock/RLock (+1) and Unlock/RUnlock (-1) calls on
// sync mutexes; dir 0 for everything else.
func (c *checker) lockCall(call *ast.CallExpr) (heldLock, int) {
	fn := analysis.FuncOf(c.pass.TypesInfo, call)
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
	info := c.pass.TypesInfo
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

// fullName names a function for cross-package matching:
// "pkgpath.Func" for package functions, "pkgpath.(Recv).Method" for
// methods (pointer stars dropped, so value and pointer receivers of
// one type collide deliberately — a lock summary does not care which
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

// checkOrder closes the package's summaries over their call sites and
// the imported facts, reports lock-order cycles, and exports this
// package's fact.
func checkOrder(pass *analysis.Pass, sums []*funcSummary) {
	factAcquires := map[string][]string{}
	var depEdges []Edge
	for path := range pass.Facts {
		var f Fact
		if !pass.ImportFact(path, &f) {
			continue
		}
		for fn, locks := range f.Acquires {
			factAcquires[fn] = locks
		}
		depEdges = append(depEdges, f.Edges...)
	}

	// Transitive may-acquire fixpoint over the local calls, seeded with
	// direct acquires and imported summaries. Declarations sharing a
	// name (a package's init functions) share one entry.
	may := map[string]map[string]bool{}
	for _, s := range sums {
		if may[s.name] == nil {
			may[s.name] = map[string]bool{}
		}
		for _, a := range s.acquires {
			if !a.detached {
				may[s.name][a.class] = true
			}
		}
	}
	calleeLocks := func(name string) []string {
		local, ok := may[name]
		if !ok {
			return factAcquires[name]
		}
		locks := make([]string, 0, len(local))
		for l := range local {
			locks = append(locks, l)
		}
		sort.Strings(locks)
		return locks
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			m := may[s.name]
			for _, c := range s.calls {
				if c.detached {
					continue
				}
				for _, l := range calleeLocks(c.callee) {
					if !m[l] {
						m[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Materialize edges: an acquire pairs every held class with the
	// acquired one; a call pairs every held class with everything the
	// callee may acquire.
	type localEdge struct {
		Edge
		pos token.Pos
	}
	var local []localEdge
	addEdge := func(from, to string, pos token.Pos) {
		if m, ok := pass.Markers().At(pass.Fset, pos, "lockorder"); ok {
			if m.Arg == "" {
				pass.Reportf(pos, "//aarc:lockorder marker needs a reason")
			}
			return
		}
		local = append(local, localEdge{Edge{From: from, To: to, At: pass.Fset.Position(pos).String()}, pos})
	}
	for _, s := range sums {
		for _, a := range s.acquires {
			for _, h := range a.held.classes() {
				addEdge(h, a.class, a.pos)
			}
		}
		for _, c := range s.calls {
			held := c.held.classes()
			if len(held) == 0 {
				continue
			}
			acq := calleeLocks(c.callee)
			for _, h := range held {
				for _, l := range acq {
					addEdge(h, l, c.pos)
				}
			}
		}
	}

	// Cycle detection over dep + local edges.
	adj := map[string]map[string]bool{}
	nodeSet := map[string]bool{}
	add := func(e Edge) {
		if adj[e.From] == nil {
			adj[e.From] = map[string]bool{}
		}
		adj[e.From][e.To] = true
		nodeSet[e.From], nodeSet[e.To] = true, true
	}
	for _, e := range depEdges {
		add(e)
	}
	for _, e := range local {
		add(e.Edge)
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	for _, scc := range stronglyConnected(nodes, adj) {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		cyclic := len(scc) > 1
		if !cyclic { // single node: cyclic only via self-edge
			cyclic = adj[scc[0]][scc[0]]
		}
		if !cyclic {
			continue
		}
		desc := cycleString(scc, adj)

		// Prefer reporting at a local edge inside the cycle.
		best := token.NoPos
		var bestEdge Edge
		for _, e := range local {
			if inSCC[e.From] && inSCC[e.To] && adj[e.From][e.To] {
				if best == token.NoPos || e.pos < best {
					best, bestEdge = e.pos, e.Edge
				}
			}
		}
		if best != token.NoPos {
			pass.Reportf(best, "lock order cycle %s: this site acquires %s while holding %s; establish one canonical order (see DESIGN.md §14) or mark //aarc:lockorder <reason>", desc, analysis.ShortName(bestEdge.To), analysis.ShortName(bestEdge.From))
			continue
		}
		// No local edge: only main packages re-report imported cycles,
		// at the package clause for lack of a better anchor.
		if pass.Pkg.Name() == "main" && len(pass.Files) > 0 {
			// Every importing package's fact carries the same closed-over
			// edge set, so dedupe positions and keep the listing short.
			seen := map[string]bool{}
			var ats []string
			for _, e := range depEdges {
				if inSCC[e.From] && inSCC[e.To] && !seen[e.At] {
					seen[e.At] = true
					ats = append(ats, e.At)
				}
			}
			sort.Strings(ats)
			if len(ats) > 4 {
				ats = append(ats[:4], fmt.Sprintf("and %d more", len(ats)-4))
			}
			pass.Reportf(pass.Files[0].Package, "lock order cycle %s between imported packages (edges at %s); establish one canonical order or mark //aarc:lockorder <reason>", desc, strings.Join(ats, ", "))
		}
	}

	// Export this package's view: transitive acquires plus every edge
	// seen so far, so importers get the closure from direct deps alone.
	out := Fact{Acquires: map[string][]string{}}
	for fn, locks := range factAcquires {
		out.Acquires[fn] = locks
	}
	for name, m := range may {
		if len(m) > 0 {
			out.Acquires[name] = calleeLocks(name)
		}
	}
	seenEdge := map[Edge]bool{}
	for _, e := range depEdges {
		if !seenEdge[e] {
			seenEdge[e] = true
			out.Edges = append(out.Edges, e)
		}
	}
	for _, e := range local {
		if !seenEdge[e.Edge] {
			seenEdge[e.Edge] = true
			out.Edges = append(out.Edges, e.Edge)
		}
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		a, b := out.Edges[i], out.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.At < b.At
	})
	if pass.ExportFact != nil {
		pass.ExportFact(out)
	}
}

// stronglyConnected returns Tarjan's SCCs over the adjacency map, in
// deterministic (smallest-member) order.
func stronglyConnected(nodes []string, adj map[string]map[string]bool) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		var succs []string
		for s := range adj[v] {
			succs = append(succs, s)
		}
		sort.Strings(succs)
		for _, s := range succs {
			if _, seen := index[s]; !seen {
				strongconnect(s)
				if low[s] < low[v] {
					low[v] = low[s]
				}
			} else if onStack[s] && index[s] < low[v] {
				low[v] = index[s]
			}
		}

		if low[v] == index[v] {
			var scc []string
			for {
				n := len(stack) - 1
				wtop := stack[n]
				stack = stack[:n]
				onStack[wtop] = false
				scc = append(scc, wtop)
				if wtop == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// cycleString renders an SCC as a rotated cycle starting at its
// smallest lock, following edges within the SCC.
func cycleString(scc []string, adj map[string]map[string]bool) string {
	if len(scc) == 1 {
		s := analysis.ShortName(scc[0])
		return s + " → " + s
	}
	in := map[string]bool{}
	for _, n := range scc {
		in[n] = true
	}
	// Walk greedily from the smallest node, preferring unvisited
	// in-SCC successors; good enough for a readable description.
	start := scc[0]
	path := []string{start}
	visited := map[string]bool{start: true}
	cur := start
	for len(path) <= len(scc) {
		var succs []string
		for s := range adj[cur] {
			if in[s] {
				succs = append(succs, s)
			}
		}
		sort.Strings(succs)
		nextNode := ""
		for _, s := range succs {
			if !visited[s] {
				nextNode = s
				break
			}
		}
		if nextNode == "" {
			break
		}
		visited[nextNode] = true
		path = append(path, nextNode)
		cur = nextNode
	}
	parts := make([]string, 0, len(path)+1)
	for _, p := range path {
		parts = append(parts, analysis.ShortName(p))
	}
	parts = append(parts, analysis.ShortName(start))
	return strings.Join(parts, " → ")
}
