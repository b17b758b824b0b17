// Package cfg builds intraprocedural control-flow graphs over Go function
// bodies, in the spirit of golang.org/x/tools/go/cfg but — like the rest of
// the internal/analysis suite — self-contained on the standard library.
// Its client is lockflow: a forward dataflow (Forward) over the graph asks
// which locks may be held when control reaches Exit.
//
// A Graph is a set of basic blocks connected by successor edges. Blocks
// carry the statements and load-bearing expressions (loop conditions, range
// clauses, select comm statements) in execution order, so a dataflow client
// can replay a block's effects node by node. The builder models:
//
//   - if/else with init statements;
//   - for loops (cond/post), including `for {}` with no exit edge;
//   - range loops, whose structural exit edge models "the ranged-over
//     channel was closed / the sequence ended";
//   - switch, type switch (implicit default → fallthrough edge to done),
//     and fallthrough between cases;
//   - select, one successor per comm clause (an empty `select {}` or a
//     default-less select whose cases all loop back therefore shows up as
//     code that cannot reach the exit);
//   - break/continue (labeled and not), goto, labeled statements;
//   - return and calls to the panic builtin, both of which edge to the
//     synthetic Exit block (deferred calls run on those paths, which is why
//     the graph records DeferStmts separately in source order);
//   - go and defer statements as ordinary nodes (a goroutine body is a
//     separate function; build its own Graph to analyze it).
//
// Nested function literals are opaque: their bodies are NOT inlined into
// the enclosing graph (a literal's control flow is its own function's).
// Clients analyzing a FuncLit build a Graph from its body.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block: a maximal straight-line sequence of nodes with
// edges only at the end.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Kind names the construct that created the block ("entry", "if.then",
	// "for.head", "select.case", ...) for debugging and tests.
	Kind string
	// Nodes are the statements/expressions executed in this block, in
	// order. The synthetic exit block has none.
	Nodes []ast.Node
	// Succs are the possible successors.
	Succs []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	// Exit is the synthetic sink: every return, panic, and fall-off-the-end
	// path edges into it. Code that cannot reach Exit can never terminate
	// the function normally.
	Exit   *Block
	Blocks []*Block
	// Defers lists the defer statements encountered anywhere in the body,
	// in source order. Deferred calls run on every path through Exit that
	// executes them; clients approximating defer semantics usually treat
	// them as running at Exit.
	Defers []*ast.DeferStmt
}

// New builds the CFG of body. body may be any statement list owner (in
// practice a function or literal body); a nil body yields a graph with only
// entry and exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*labelInfo),
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.g.Exit)
	// Resolve gotos to labels that were never declared (broken code or a
	// label on a later path the builder missed): conservatively edge them
	// to exit so clients never see a dangling reference.
	for _, li := range b.labels {
		if !li.placed {
			for _, src := range li.pending {
				addEdge(src, b.g.Exit)
			}
		}
	}
	return b.g
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label     string
	breakB    *Block // break destination
	continueB *Block // continue destination; nil for switch/select
}

type labelInfo struct {
	block   *Block
	placed  bool
	pending []*Block // blocks with a goto to the label before it was placed
}

type builder struct {
	g       *Graph
	cur     *Block
	targets []target
	labels  map[string]*labelInfo
	// pendingLabel is the label of a LabeledStmt whose inner statement is
	// about to be built (so `continue L` can find L's loop).
	pendingLabel string
	// fallTarget is the next case body during switch construction.
	fallTarget *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an edge to dst and makes dst current.
func (b *builder) jump(dst *Block) {
	addEdge(b.cur, dst)
	b.cur = dst
}

// startUnreachable begins a fresh block with no predecessors, for code
// following a return/branch. It stays in Graph.Blocks so its nodes remain
// inspectable, but Forward never reaches it.
func (b *builder) startUnreachable() {
	b.cur = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		b.jump(li.block)
		li.placed = true
		for _, src := range li.pending {
			addEdge(src, li.block)
		}
		li.pending = nil
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
		b.startUnreachable()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Exit)
			b.startUnreachable()
		}
	default:
		// Assign, Decl, IncDec, Send, Go, ...: straight-line nodes.
		b.add(s)
	}
}

// isPanicCall reports whether e is a call of an identifier named panic.
// The cfg package has no type information, so a shadowed `panic` function
// is (harmlessly, conservatively) treated as terminating too.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) labelFor(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{block: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if label == "" || t.label == label {
				b.jump(t.breakB)
				b.startUnreachable()
				return
			}
		}
	case "continue":
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.continueB != nil && (label == "" || t.label == label) {
				b.jump(t.continueB)
				b.startUnreachable()
				return
			}
		}
	case "goto":
		li := b.labelFor(label)
		if li.placed {
			b.jump(li.block)
		} else {
			li.pending = append(li.pending, b.cur)
		}
		b.startUnreachable()
		return
	case "fallthrough":
		if b.fallTarget != nil {
			b.jump(b.fallTarget)
			b.startUnreachable()
			return
		}
	}
	// Unmatched break/continue (broken code): fall off to exit so the
	// graph stays connected.
	b.jump(b.g.Exit)
	b.startUnreachable()
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	addEdge(head, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(done)
	if s.Else != nil {
		els := b.newBlock("if.else")
		addEdge(head, els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(done)
	} else {
		addEdge(head, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.jump(head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	addEdge(head, body)
	if s.Cond != nil {
		addEdge(head, done) // `for {}` has no structural exit edge
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		addEdge(post, head)
		cont = post
	}
	b.targets = append(b.targets, target{label: label, breakB: done, continueB: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(cont)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	b.jump(head)
	// The RangeStmt itself is the head's node, so clients can see what is
	// being ranged over (a channel receive, a slice walk, ...).
	head.Nodes = append(head.Nodes, s)
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	addEdge(head, body)
	addEdge(head, done)
	b.targets = append(b.targets, target{label: label, breakB: done, continueB: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body, label, false)
}

// caseClauses builds the shared switch/type-switch shape: head → every case
// body, implicit default → done, optional fallthrough chaining.
func (b *builder) caseClauses(body *ast.BlockStmt, label string, allowFallthrough bool) {
	head := b.cur
	done := b.newBlock("switch.done")
	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		kind := "case"
		if cc.List == nil {
			kind = "default"
			hasDefault = true
		}
		blocks[i] = b.newBlock("switch." + kind)
		addEdge(head, blocks[i])
	}
	if !hasDefault {
		addEdge(head, done)
	}
	b.targets = append(b.targets, target{label: label, breakB: done})
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if allowFallthrough && i+1 < len(blocks) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = nil
		}
		b.stmtList(cc.Body)
		b.fallTarget = nil
		b.jump(done)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	done := b.newBlock("select.done")
	b.targets = append(b.targets, target{label: label, breakB: done})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		addEdge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			// The comm statement (send or receive) executes first in its
			// case block.
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.targets = b.targets[:len(b.targets)-1]
	// An empty `select {}` blocks forever: head gets no case successor and
	// done keeps no predecessor, so following code is unreachable — exactly
	// the semantics.
	b.cur = done
}

// Debug renders the graph as one line per block, for tests.
func (g *Graph) Debug() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%s ->", b)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " %s", s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
