// Package lockorder builds the whole-program lock-acquisition graph
// and reports cycles — the static form of the deadlock-freedom claim
// DESIGN.md makes for the serving stack's mutexes (service shards,
// flightGroup, refresh set, event bus, drift monitor).
//
// Where lockscope sees one function at a time, lockorder is
// interprocedural: each package exports, as a unitchecker fact, the
// set of locks every function may transitively acquire and the
// acquired-while-held edges observed so far; importing packages splice
// those summaries into their own graphs, so an edge created by calling
// into another package (service holds refreshMu → store takes
// Memory.mu) materializes without re-analyzing the callee.
//
// A lock's identity is its declaration site, not its instance:
// "pkgpath.(Type).field" for mutex fields, "pkgpath.var" for
// package-level mutexes. Two shards of one pool share an identity — a
// self-edge on a sharded lock is reported too, since acquiring two
// instances of the same class in arbitrary order is the classic
// sharded-deadlock. Function-local mutexes cannot participate in
// cross-function cycles and are ignored.
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
	Name:  "lockorder",
	Doc:   "build the cross-package lock-acquisition graph and flag cycles (potential deadlocks)",
	Run:   run,
	Facts: true,
}

// Fact is one package's contribution to the whole-program graph.
type Fact struct {
	// Acquires maps a function's full name (flow.FullName) to the
	// lock identities it may transitively acquire on the calling
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

// acquire is one direct lock acquisition observed during the walk.
type acquire struct {
	lock string
	pos  token.Pos
	held []string // locks held at this point, excluding lock itself
}

// callsite is one statically resolved call observed under held locks.
type callsite struct {
	callee string
	pos    token.Pos
	held   []string
	// detached marks calls made on a goroutine the function spawns:
	// they produce ordering edges on that goroutine's stack but do not
	// join the spawner's synchronous may-acquire set.
	detached bool
}

// funcSummary is the per-function result of the body walk.
type funcSummary struct {
	name     string
	acquires []acquire
	calls    []callsite
	direct   map[string]bool // lock IDs acquired synchronously
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return nil
	}

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

	// Phase 1: walk every declaration, collecting direct acquires,
	// held-at-call snapshots, and local edges.
	summaries := map[string]*funcSummary{}
	var order []string
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			w := &walker{pass: pass, sum: &funcSummary{name: flow.FullName(fn), direct: map[string]bool{}}}
			w.stmts(fd.Body.List, nil)
			summaries[w.sum.name] = w.sum
			order = append(order, w.sum.name)
		}
	}
	sort.Strings(order)

	// Phase 2: transitive may-acquire fixpoint over the local call
	// graph, seeded with direct acquires and imported summaries.
	may := map[string]map[string]bool{}
	for _, name := range order {
		m := map[string]bool{}
		for l := range summaries[name].direct {
			m[l] = true
		}
		may[name] = m
	}
	for changed := true; changed; {
		changed = false
		for _, name := range order {
			m := may[name]
			for _, c := range summaries[name].calls {
				if c.detached {
					continue
				}
				var callee []string
				if local, ok := may[c.callee]; ok {
					for l := range local {
						callee = append(callee, l)
					}
				} else {
					callee = factAcquires[c.callee]
				}
				for _, l := range callee {
					if !m[l] {
						m[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: materialize edges. Direct edges were captured with the
	// held set at the acquire; call edges pair every held lock with
	// everything the callee may acquire.
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
	for _, name := range order {
		s := summaries[name]
		for _, a := range s.acquires {
			for _, h := range a.held {
				addEdge(h, a.lock, a.pos)
			}
		}
		for _, c := range s.calls {
			if len(c.held) == 0 {
				continue
			}
			var acq []string
			if m, ok := may[c.callee]; ok {
				for l := range m {
					acq = append(acq, l)
				}
				sort.Strings(acq)
			} else {
				acq = factAcquires[c.callee]
			}
			for _, h := range c.held {
				for _, l := range acq {
					addEdge(h, l, c.pos)
				}
			}
		}
	}

	// Phase 4: cycle detection over dep + local edges.
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
			pass.Reportf(best, "lock order cycle %s: this site acquires %s while holding %s; establish one canonical order (see DESIGN.md §14) or mark //aarc:lockorder <reason>", desc, shortLock(bestEdge.To), shortLock(bestEdge.From))
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
	for _, name := range order {
		m := may[name]
		if len(m) == 0 {
			continue
		}
		locks := make([]string, 0, len(m))
		for l := range m {
			locks = append(locks, l)
		}
		sort.Strings(locks)
		out.Acquires[name] = locks
	}
	for fn, locks := range factAcquires {
		if _, ok := out.Acquires[fn]; !ok {
			out.Acquires[fn] = locks
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
	return nil
}

// walker threads the held-lock list through a function body,
// lockscope-style: branch bodies get copies, go-statement bodies start
// empty and their acquires/calls are detached (they do not feed the
// spawning function's synchronous summary — a goroutine's locks are
// ordered on its own stack).
type walker struct {
	pass *analysis.Pass
	sum  *funcSummary
}

func (w *walker) stmts(list []ast.Stmt, held []string) []string {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func copyHeld(held []string) []string {
	return append([]string(nil), held...)
}

func without(held []string, lock string) []string {
	out := held[:0:0]
	for _, h := range held {
		if h != lock {
			out = append(out, h)
		}
	}
	return out
}

func (w *walker) stmt(s ast.Stmt, held []string) []string {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lock, dir := w.lockCall(call); dir != 0 {
				if dir > 0 {
					w.record(lock, call.Pos(), held)
					return append(held, lock)
				}
				return without(held, lock)
			}
		}
		w.scan(s.X, held)
	case *ast.DeferStmt:
		if lock, dir := w.lockCall(s.Call); dir != 0 {
			if dir > 0 {
				w.record(lock, s.Call.Pos(), held)
				return append(held, lock)
			}
			return held // defer unlock: held until return
		}
		w.scan(s.Call, held)
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// Fresh goroutine, fresh stack: its internal ordering still
			// counts (it can deadlock against others), so walk it with
			// an empty held set into the same summary — but its calls
			// must not look synchronous, so the body is walked through
			// a detached summary and only its direct edges survive.
			w.goBody(lit.Body)
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scan(s.Cond, held)
		}
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		w.scan(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scan(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scan(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, held)
		}
	default:
		w.scanNode(s, held)
	}
	return held
}

// goBody walks a go-statement literal with a detached summary: direct
// acquires inside it produce edges on its own stack and feed nothing
// into the enclosing function's synchronous may-acquire set.
func (w *walker) goBody(body *ast.BlockStmt) {
	det := &walker{pass: w.pass, sum: &funcSummary{name: w.sum.name + "·go", direct: map[string]bool{}}}
	det.stmts(body.List, nil)
	// Direct edges observed inside the goroutine are real edges on its
	// own stack; its calls carry over detached so they stay out of the
	// spawner's synchronous may-acquire set, like det.sum.direct.
	w.sum.acquires = append(w.sum.acquires, det.sum.acquires...)
	for _, c := range det.sum.calls {
		c.detached = true
		w.sum.calls = append(w.sum.calls, c)
	}
}

func (w *walker) record(lock string, pos token.Pos, held []string) {
	w.sum.direct[lock] = true
	w.sum.acquires = append(w.sum.acquires, acquire{lock: lock, pos: pos, held: copyHeld(held)})
}

// scan records statically resolved calls in an expression evaluated
// with locks held, and walks function literals with the same held set
// (a literal built under a lock is overwhelmingly run under it).
func (w *walker) scan(e ast.Expr, held []string) {
	w.scanNode(e, held)
}

func (w *walker) scanNode(n ast.Node, held []string) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			w.stmts(x.Body.List, copyHeld(held))
			return false
		case *ast.CallExpr:
			if _, dir := w.lockCall(x); dir != 0 {
				return true // handled structurally where it matters
			}
			if fn := analysis.FuncOf(w.pass.TypesInfo, x); fn != nil && fn.Pkg() != nil {
				w.sum.calls = append(w.sum.calls, callsite{
					callee: flow.FullName(fn),
					pos:    x.Pos(),
					held:   copyHeld(held),
				})
			}
		}
		return true
	})
}

// lockCall classifies Lock/RLock (+1) and Unlock/RUnlock (-1) calls on
// sync mutexes and resolves the receiver to a declaration-site lock
// identity; dir 0 for everything else, lock "" when the receiver is a
// function-local mutex (which cannot cycle across functions).
func (w *walker) lockCall(call *ast.CallExpr) (lock string, dir int) {
	fn := analysis.FuncOf(w.pass.TypesInfo, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return "", 0
	}
	if pkg := fn.Pkg(); pkg == nil || pkg.Path() != "sync" {
		return "", 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		dir = +1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return "", 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	return w.lockIdent(sel.X), dir
}

// lockIdent names the mutex expression by declaration site.
func (w *walker) lockIdent(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// A field: name it by the owning named type.
		if selInfo, ok := w.pass.TypesInfo.Selections[e]; ok {
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
			if _, isPkg := w.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := w.pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.IndexExpr:
		return w.lockIdent(e.X)
	}
	return "" // local or unresolvable: cannot participate in a cycle
}

// stronglyConnected returns Tarjan's SCCs over the adjacency map, in
// deterministic (smallest-member) order, ignoring "" nodes (dropped
// local locks).
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
			if s != "" {
				succs = append(succs, s)
			}
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
		if v == "" {
			continue
		}
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
		s := shortLock(scc[0])
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
		parts = append(parts, shortLock(p))
	}
	parts = append(parts, shortLock(start))
	return strings.Join(parts, " → ")
}

// shortLock trims the module-internal path prefix for readability:
// "aarc/internal/service.(Service).mu" → "service.(Service).mu".
func shortLock(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
