package vet

// Control-flow graph construction for the dataflow analysis, buf-own
// (its one client: lock-pairing is lexical and lock-order walks source
// order, because every hold is P then defer V). The CFG is statement-granular: each basic block holds
// an ordered list of ast.Nodes — plain statements, plus bare condition
// expressions for if/for/switch heads — and edges follow Go control
// flow through if/else, for/range loops, switch/type-switch/select,
// break/continue (with labels), goto, and return. Defer statements stay
// in the block where they execute; analyses record them into their
// abstract state so deferred effects apply only on paths that actually
// ran the defer. Calls that provably never return (panic, a method or
// function named Exit, runtime unwinding) terminate their block without
// an edge to the exit, so exit-time checks (leaked buffers) do not fire
// on crash paths.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block.
type cfgBlock struct {
	id    int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock
}

// returnMarker is a synthetic node appended to a block when control
// falls off the end of the function body — the implicit return. It lets
// analyses run their exit checks at explicit and implicit returns alike.
type returnMarker struct {
	pos token.Pos
}

func (r returnMarker) Pos() token.Pos { return r.pos }
func (r returnMarker) End() token.Pos { return r.pos }

type loopCtx struct {
	label    string
	breakBlk *cfgBlock
	contBlk  *cfgBlock // nil for switch/select contexts
}

type cfgBuilder struct {
	g      *funcCFG
	cur    *cfgBlock // nil while control is unreachable
	loops  []loopCtx
	labels map[string]*cfgBlock // goto targets
	gotos  map[string][]*cfgBlock
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{
		g:      &funcCFG{},
		labels: map[string]*cfgBlock{},
		gotos:  map[string][]*cfgBlock{},
	}
	b.g.exit = b.newBlock()
	b.g.entry = b.newBlock()
	b.cur = b.g.entry
	b.stmts(body.List)
	if b.cur != nil {
		// Control falls off the end: an implicit return.
		b.cur.nodes = append(b.cur.nodes, returnMarker{pos: body.End()})
		b.edge(b.cur, b.g.exit)
	}
	// Patch forward gotos.
	for name, srcs := range b.gotos {
		dst := b.labels[name]
		if dst == nil {
			dst = b.g.exit // unresolved label: bail conservatively
		}
		for _, s := range srcs {
			b.edge(s, dst)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

// startBlock finishes cur (if reachable) with an edge into a fresh
// block and makes that the current one.
func (b *cfgBuilder) startBlock() *cfgBlock {
	blk := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findLoop resolves a break/continue target; label "" means innermost.
// wantCont selects contexts that can be continued (loops, not switches).
func (b *cfgBuilder) findLoop(label string, wantCont bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if wantCont && lc.contBlk == nil {
			continue
		}
		if label == "" || lc.label == label {
			return lc
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code still gets blocks so its nodes are visited
		// (reported findings inside dead code are still findings), but
		// with no predecessor edges its in-state stays bottom.
		b.cur = b.newBlock()
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)
	case *ast.LabeledStmt:
		target := b.startBlock()
		b.labels[st.Label.Name] = target
		b.labeledStmt(st.Label.Name, st.Stmt)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt("", st)
	case *ast.RangeStmt:
		b.rangeStmt("", st)
	case *ast.SwitchStmt:
		b.switchStmt("", st.Init, st.Tag, nil, st.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt("", st.Init, nil, st.Assign, st.Body)
	case *ast.SelectStmt:
		b.selectStmt("", st)
	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.g.exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(st)
	case *ast.ExprStmt:
		b.add(st)
		if isTerminalCall(st.X) {
			b.cur = nil // panic/Exit: no edge anywhere
		}
	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty, ...
		b.add(s)
	}
}

// labeledStmt dispatches a labeled loop/switch so break/continue with
// the label resolve to it; other labeled statements (goto targets) run
// normally.
func (b *cfgBuilder) labeledStmt(label string, s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ForStmt:
		b.forStmt(label, st)
	case *ast.RangeStmt:
		b.rangeStmt(label, st)
	case *ast.SwitchStmt:
		b.switchStmt(label, st.Init, st.Tag, nil, st.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(label, st.Init, nil, st.Assign, st.Body)
	case *ast.SelectStmt:
		b.selectStmt(label, st)
	default:
		b.stmt(s)
	}
}

func (b *cfgBuilder) branchStmt(st *ast.BranchStmt) {
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok.String() {
	case "break":
		if lc := b.findLoop(label, false); lc != nil {
			b.edge(b.cur, lc.breakBlk)
		}
		b.cur = nil
	case "continue":
		if lc := b.findLoop(label, true); lc != nil {
			b.edge(b.cur, lc.contBlk)
		}
		b.cur = nil
	case "goto":
		if dst := b.labels[label]; dst != nil {
			b.edge(b.cur, dst)
		} else {
			b.gotos[label] = append(b.gotos[label], b.cur)
		}
		b.cur = nil
	case "fallthrough":
		// Handled structurally in switchStmt; nothing to do here.
	}
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.add(st.Init)
	}
	b.add(st.Cond)
	head := b.cur
	join := b.newBlock()

	thenBlk := b.newBlock()
	thenBlk.nodes = append(thenBlk.nodes, condAssume{cond: st.Cond, val: true})
	b.edge(head, thenBlk)
	b.cur = thenBlk
	b.stmts(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, join)
	}

	if st.Else != nil {
		elseBlk := b.newBlock()
		elseBlk.nodes = append(elseBlk.nodes, condAssume{cond: st.Cond, val: false})
		b.edge(head, elseBlk)
		b.cur = elseBlk
		b.stmt(st.Else)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	} else {
		fall := b.newBlock()
		fall.nodes = append(fall.nodes, condAssume{cond: st.Cond, val: false})
		b.edge(head, fall)
		b.edge(fall, join)
	}
	b.cur = join
}

// condAssume is a synthetic node placed at the head of each if branch
// recording the branch polarity: the condition evaluated to val on
// this path. Uses inside the condition were already processed in the
// head block; analyses consume this only for path facts (buf-own's
// `x, ok := acquire()` guard).
type condAssume struct {
	cond ast.Expr
	val  bool
}

func (c condAssume) Pos() token.Pos { return c.cond.Pos() }
func (c condAssume) End() token.Pos { return c.cond.End() }

func (b *cfgBuilder) forStmt(label string, st *ast.ForStmt) {
	if st.Init != nil {
		b.add(st.Init)
	}
	head := b.startBlock()
	if st.Cond != nil {
		b.add(st.Cond)
	}
	exit := b.newBlock()
	post := head
	if st.Post != nil {
		post = b.newBlock()
		post.nodes = append(post.nodes, st.Post)
		b.edge(post, head)
	}
	if st.Cond != nil {
		b.edge(head, exit)
	}
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.loops = append(b.loops, loopCtx{label: label, breakBlk: exit, contBlk: post})
	b.stmts(st.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	if b.cur != nil {
		b.edge(b.cur, post)
	}
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(label string, st *ast.RangeStmt) {
	head := b.startBlock()
	// The range head evaluates the operand and binds key/value; hand the
	// whole statement to the analyses as the head node (they only look
	// at the X expression and the bindings).
	head.nodes = append(head.nodes, rangeHead{st})
	exit := b.newBlock()
	b.edge(head, exit) // a range may run zero iterations
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.loops = append(b.loops, loopCtx{label: label, breakBlk: exit, contBlk: head})
	b.stmts(st.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = exit
}

// rangeHead wraps a RangeStmt when it appears as a loop-head node, so
// analyses evaluate its operand and bindings without recursing into the
// body (the body has its own blocks).
type rangeHead struct {
	stmt *ast.RangeStmt
}

func (r rangeHead) Pos() token.Pos { return r.stmt.Pos() }
func (r rangeHead) End() token.Pos { return r.stmt.End() }

// switchStmt builds expression and type switches. tag is the tagged
// expression (nil for type switches, which carry assign instead).
func (b *cfgBuilder) switchStmt(label string, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	exit := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, breakBlk: exit})

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	bodies := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	hasDefault := false
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			head.nodes = append(head.nodes, e)
		}
		b.edge(head, bodies[i])
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	for i, cc := range clauses {
		b.cur = bodies[i]
		fallsThrough := false
		for _, cs := range cc.Body {
			if br, ok := cs.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				break
			}
			b.stmt(cs)
		}
		if b.cur != nil {
			if fallsThrough && i+1 < len(bodies) {
				b.edge(b.cur, bodies[i+1])
			} else {
				b.edge(b.cur, exit)
			}
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = exit
}

func (b *cfgBuilder) selectStmt(label string, st *ast.SelectStmt) {
	head := b.cur
	exit := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, breakBlk: exit})
	any := false
	for _, cs := range st.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		if cc.Comm != nil {
			blk.nodes = append(blk.nodes, cc.Comm)
		}
		b.edge(head, blk)
		b.cur = blk
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, exit)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !any {
		b.edge(head, exit)
	}
	b.cur = exit
}

// isTerminalCall reports whether the expression is a call that never
// returns: the panic builtin, or a method/function named Exit (the sim
// kernel's process exit, os.Exit). Crash paths skip exit-time checks.
func isTerminalCall(x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		return fn.Sel.Name == "Exit" || fn.Sel.Name == "Fatalf" || fn.Sel.Name == "Fatal"
	}
	return false
}
