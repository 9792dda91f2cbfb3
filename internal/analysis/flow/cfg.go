// Package flow is the dataflow layer under the aarcvet analyzers: a
// control-flow graph and SSA-lite IR built from go/ast + go/types with
// nothing outside the standard library. DESIGN.md §13 gated the stock
// SSA-based analyzers (nilness, unusedwrite) out as having "no
// stdlib-only equivalent"; this package is that equivalent, scoped to
// what the suite's flow-sensitive checks actually need:
//
//   - a CFG per function body (basic blocks with edges from
//     if/for/range/switch/select/goto/labels; return and panic edge to
//     the exit block; defer statements stay in place in their block);
//   - a generic worklist dataflow engine over caller-supplied join
//     semilattices, with per-edge refinement (branch conditions).
//
// An analyzer that needs to follow calls builds its own per-function
// summaries over one package.
//
// Deliberately omitted relative to x/tools/go/ssa: no phi nodes, no
// value numbering, no instruction rewriting. The analyzers here need
// "which abstract state can reach this statement", not a full IR, and
// the AST statement is kept as the unit of transfer so diagnostics
// point at real source positions.
package flow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// A Block is one basic block: a maximal straight-line statement
// sequence. Statements appear in source order; control transfers only
// at the end of the block, along Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks; 0 is the entry
	// block and 1 the exit block.
	Index int

	// Kind labels why the block exists ("entry", "exit", "if.then",
	// "for.body", ...) — diagnostic and golden-test sugar, not
	// semantics.
	Kind string

	// Stmts are the block's statements in source order. Branch and
	// loop headers keep their init/condition expressions out of Stmts;
	// see Cond.
	Stmts []ast.Stmt

	// Cond, when non-nil, is the boolean condition the block branches
	// on: Succs[0] is the true edge and Succs[1] the false edge. Blocks
	// without a Cond make no such guarantee about Succs order.
	Cond ast.Expr

	// Succs are the blocks control may transfer to next.
	Succs []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks holds every block; Blocks[0] is the entry and Blocks[1]
	// the exit. Unreachable blocks (code after return, empty branch
	// joins) stay in the slice with no predecessors.
	Blocks []*Block
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// Exit returns the exit block, the target of every return and panic.
func (g *Graph) Exit() *Block { return g.Blocks[1] }

// Preds returns the predecessor lists of every block, indexed like
// Blocks. Computed on demand; the builder maintains only Succs.
func (g *Graph) Preds() [][]*Block {
	preds := make([][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}
	return preds
}

// New builds the CFG of one function body. A nil body (declared
// externally, e.g. assembly) yields a two-block graph with entry wired
// straight to exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	entry := b.newBlock("entry")
	b.newBlock("exit")
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.g.Exit())
	b.resolveGotos()
	return b.g
}

// builder threads the current block and the break/continue/label
// context through a recursive statement walk.
type builder struct {
	g   *Graph
	cur *Block // nil after an unconditional transfer (return, goto)

	breaks    []*Block          // innermost-last break targets
	continues []*Block          // innermost-last continue targets
	labels    map[string]*label // named loop/label targets
	gotos     []pendingGoto
}

type label struct {
	block     *Block // the labeled statement's block (goto target)
	breakTo   *Block // break L target, nil until the labeled loop is entered
	continues *Block // continue L target, nil for non-loops
}

type pendingGoto struct {
	from *Block
	name string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// current returns the block statements are flowing into, materializing
// an unreachable block after a terminator so later statements still
// land somewhere (they are dead code, kept for analysis completeness).
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

// jump wires the current block (if any) to target and leaves the
// builder with no current block. A nil target (a branch with no legal
// destination, e.g. malformed source) drops the edge rather than
// poisoning the graph.
func (b *builder) jump(target *Block) {
	if b.cur != nil && target != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, "switch")
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, "typeswitch")
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.current().Stmts = append(b.current().Stmts, s)
		b.jump(b.g.Exit())
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.current().Stmts = append(b.current().Stmts, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanic(call) {
			// panic unwinds: edge to exit, nothing falls through.
			b.jump(b.g.Exit())
		}
	default:
		// Assign, Decl, Defer, Send, IncDec, Go, Empty...: straight-line.
		b.current().Stmts = append(b.current().Stmts, s)
	}
}

// isPanic recognizes a call to the predeclared panic. Resolution is
// syntactic (an unshadowed identifier); a user-declared panic function
// would be misread, which no project package does.
func isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.current()
	head.Cond = s.Cond
	then := b.newBlock("if.then")
	head.Succs = append(head.Succs, then)
	done := b.newBlock("if.done")

	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(done)

	if s.Else != nil {
		els := b.newBlock("if.else")
		head.Succs = append(head.Succs, els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(done)
	} else {
		head.Succs = append(head.Succs, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, labelName string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.jump(head)
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	if s.Cond != nil {
		head.Cond = s.Cond
		head.Succs = append(head.Succs, body, done)
	} else {
		head.Succs = append(head.Succs, body)
	}

	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
		b.cur = post
		b.stmt(s.Post)
		b.jump(head)
	}

	b.pushLoop(done, post, labelName)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(post)
	b.popLoop(labelName)
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, labelName string) {
	head := b.newBlock("range.head")
	// The range expression (and per-iteration assignment) lives in the
	// head so analyses see it evaluated before any body iteration.
	head.Stmts = append(head.Stmts, s)
	b.jump(head)
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	head.Succs = append(head.Succs, body, done)

	b.pushLoop(done, head, labelName)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.popLoop(labelName)
	b.cur = done
}

// switchStmt handles both expression and type switches: the header
// evaluates init/tag, each case body is a successor, and a missing
// default adds a fall-out edge to done. Fallthrough edges the previous
// case body into the next one.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, kind string) {
	if init != nil {
		b.stmt(init)
	}
	head := b.current()
	if tag != nil {
		head.Stmts = append(head.Stmts, &ast.ExprStmt{X: tag})
	}
	if assign != nil {
		head.Stmts = append(head.Stmts, assign)
	}
	done := b.newBlock(kind + ".done")

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock(kind + ".case")
		head.Succs = append(head.Succs, blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}

	b.pushSwitch(done)
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		// fallthrough transfers into the next case's block; detect it
		// as the clause's last statement (the only legal position).
		fall := false
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = true
			}
		}
		b.stmtList(cc.Body)
		if fall && i+1 < len(caseBlocks) {
			b.jump(caseBlocks[i+1])
		} else {
			b.jump(done)
		}
	}
	b.popSwitch()
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	head := b.current()
	done := b.newBlock("select.done")
	b.pushSwitch(done)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		head.Succs = append(head.Succs, blk)
		b.cur = blk
		if cc.Comm != nil {
			blk.Stmts = append(blk.Stmts, cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.popSwitch()
	// A select with no cases blocks forever: no edge out of head.
	b.cur = done
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	blk := b.newBlock("label." + s.Label.Name)
	b.jump(blk)
	b.cur = blk
	if b.labels == nil {
		b.labels = make(map[string]*label)
	}
	b.labels[s.Label.Name] = &label{block: blk}
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.current().Stmts = append(b.current().Stmts, s)
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil && l.breakTo != nil {
				b.jump(l.breakTo)
				return
			}
		}
		if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
			return
		}
		b.cur = nil
	case token.CONTINUE:
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil && l.continues != nil {
				b.jump(l.continues)
				return
			}
		}
		// Skip the nil placeholders switch/select push: continue always
		// targets the innermost enclosing *loop*.
		for i := len(b.continues) - 1; i >= 0; i-- {
			if b.continues[i] != nil {
				b.jump(b.continues[i])
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.current(), name: s.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Edge added by switchStmt; the statement itself is recorded.
	}
}

func (b *builder) pushLoop(breakTo, continueTo *Block, labelName string) {
	b.breaks = append(b.breaks, breakTo)
	b.continues = append(b.continues, continueTo)
	if labelName != "" {
		if l := b.labels[labelName]; l != nil {
			l.breakTo, l.continues = breakTo, continueTo
		}
	}
}

func (b *builder) popLoop(labelName string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	_ = labelName
}

// pushSwitch makes done the break target without touching continue
// (continue inside a switch still targets the enclosing loop).
func (b *builder) pushSwitch(done *Block) {
	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, nil)
}

func (b *builder) popSwitch() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// resolveGotos wires pending goto edges once every label's block
// exists (forward gotos).
func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if l := b.labels[g.name]; l != nil {
			g.from.Succs = append(g.from.Succs, l.block)
		}
	}
}

// String renders the graph in the deterministic text form the golden
// tests compare: one line per block with its kind, statements and
// successor indexes.
func (g *Graph) String() string {
	fset := token.NewFileSet()
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d %s", b.Index, b.Kind)
		if len(b.Stmts) > 0 {
			sb.WriteString(" [")
			for i, s := range b.Stmts {
				if i > 0 {
					sb.WriteString("; ")
				}
				sb.WriteString(renderNode(fset, s))
			}
			sb.WriteString("]")
		}
		if b.Cond != nil {
			fmt.Fprintf(&sb, " if %s", renderNode(fset, b.Cond))
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " %d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func renderNode(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	out := buf.String()
	out = strings.ReplaceAll(out, "\n", " ")
	out = strings.ReplaceAll(out, "\t", "")
	return out
}
