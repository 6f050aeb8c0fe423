package vet

// buf-own: a flow-sensitive ownership/loan checker for pooled buffers.
//
// Values originating from `bufpool.Get`, `Message.TakeWire`, and
// callees whose inferred summary owns a result are abstract objects in
// the state {owned, borrowed, released, escaped}; borrow-mode decodes
// (`proto.DecodeBorrow`, `DecodeBorrowInto`) mark the decoded message
// variable as holding borrowed wire data. The analysis propagates
// object sets through assignments, slicing, append/AppendEncode
// passthrough, and defers, and reports:
//
//   - double-Put: bufpool.Put on an object already released (directly
//     or via an earlier `defer bufpool.Put`);
//   - use-after-Put: reading a variable whose buffer was released on
//     some path;
//   - leak: a path to a return that neither Puts an owned buffer nor
//     transfers its ownership (SetWire, store to a field/global,
//     return), including early error returns — and, for infinite
//     server loops, re-acquiring at the same site while the previous
//     iteration's buffer is still owned;
//   - borrowed escape: borrowed wire data (Message.Data after a
//     borrow-mode decode) stored to a field/global/index or captured
//     by a closure without first detaching it with TakeWire.
//
// Ownership transfer points recognised without annotation: SetWire
// (the message takes the buffer), stores through a field/global/index
// lvalue, return operands, and closure capture. Passing a tracked
// value as a plain call argument is a loan by default — but when the
// callee has an inferred FuncSummary (see summary.go), its effects
// apply at the call site: may-released params are released (a later
// Put is a double-release), stored params are transfers (and a
// borrowed argument is a finding), and an owned result is an acquire
// the caller must discharge.
//
// The same analysis runs in a second role: summary inference. With
// sum/mute set, []byte parameters are seeded as tracked owned objects,
// findings are suppressed, and each return harvests the param masks
// and result object sets into the function's FuncSummary.
//
// All findings share the rule name buf-own, so deliberate sites are
// annotated `vet:ignore buf-own`.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// Object state bits. Acquire and release/escape are strong updates
// (Put clears owned), so `owned` at a checkpoint means "still holding
// on some path reaching here".
const (
	stOwned uint16 = 1 << iota
	stBorrowed
	stReleased
	stEscaped
	stDeferredRel // a `defer bufpool.Put` will release it at exit
)

// maxBufObjs bounds tracked allocation sites per function; env sets
// are uint64 bitsets. Later sites go untracked (no findings on them).
const maxBufObjs = 64

// ownState is the abstract state: which objects each variable may
// hold, which borrow objects each message variable carries, and each
// object's state bits.
type ownState struct {
	env  map[types.Object]uint64
	msg  map[types.Object]uint64
	mask map[int]uint16
	// guard links an ok-variable from `buf, ok := acquire()` to the
	// objects that only exist when it is true; the branch that observes
	// ok == false un-acquires them (the callee reported failure and
	// returned no buffer).
	guard map[types.Object]uint64
}

func (s *ownState) clone() flowState {
	c := &ownState{
		env:   make(map[types.Object]uint64, len(s.env)),
		msg:   make(map[types.Object]uint64, len(s.msg)),
		mask:  make(map[int]uint16, len(s.mask)),
		guard: make(map[types.Object]uint64, len(s.guard)),
	}
	for k, v := range s.env {
		c.env[k] = v
	}
	for k, v := range s.msg {
		c.msg[k] = v
	}
	for k, v := range s.mask {
		c.mask[k] = v
	}
	for k, v := range s.guard {
		c.guard[k] = v
	}
	return c
}

func (s *ownState) join(other flowState) bool {
	o := other.(*ownState)
	changed := false
	for k, v := range o.env {
		if s.env[k]|v != s.env[k] {
			s.env[k] |= v
			changed = true
		}
	}
	for k, v := range o.msg {
		if s.msg[k]|v != s.msg[k] {
			s.msg[k] |= v
			changed = true
		}
	}
	for k, v := range o.mask {
		if s.mask[k]|v != s.mask[k] {
			s.mask[k] |= v
			changed = true
		}
	}
	for k, v := range o.guard {
		if s.guard[k]|v != s.guard[k] {
			s.guard[k] |= v
			changed = true
		}
	}
	return changed
}

// bufOwn is the per-function analysis instance.
type bufOwn struct {
	c  *checker
	fd *ast.FuncDecl
	// sites maps an acquire call position to its object id; ids are
	// stable across fixed-point iterations.
	sites map[token.Pos]int
	pos   []token.Pos // object id → acquire position
	what  []string    // object id → human name of the source
	rep   map[string]bool
	// mute suppresses findings (summary-inference mode).
	mute bool
	// cur holds the in-flight summaries of the enclosing SCC during
	// summary inference, consulted before the shared table.
	cur map[string]*FuncSummary
	// sum collects the function's own summary when non-nil.
	sum *sumBuilder
}

// sumBuilder accumulates one function's summary during inference.
type sumBuilder struct {
	// idParam maps a tracked object id back to the parameter index it
	// was seeded from.
	idParam map[int]int
	out     *FuncSummary
}

// checkBufOwn runs the ownership analysis over every function in the
// file.
func (c *checker) checkBufOwn(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		a := &bufOwn{
			c:     c,
			fd:    fd,
			sites: map[token.Pos]int{},
			rep:   map[string]bool{},
		}
		a.run()
	}
}

func (a *bufOwn) run() {
	g := buildCFG(a.fd.Body)
	if a.sum == nil {
		a.c.stats.Funcs++
		a.c.stats.Blocks += len(g.blocks)
	}
	entry := &ownState{env: map[types.Object]uint64{}, msg: map[types.Object]uint64{}, mask: map[int]uint16{}, guard: map[types.Object]uint64{}}
	if a.sum != nil {
		a.seedParams(entry)
	}
	runFlow(g, entry, func(fs flowState, blk *cfgBlock, idx int, report bool) {
		a.node(fs.(*ownState), blk.nodes[idx], report)
	})
}

// seedParams makes every []byte parameter a tracked owned object so
// releases and escapes of it surface in the summary's param effects.
func (a *bufOwn) seedParams(st *ownState) {
	if a.fd.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range a.fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, nm := range field.Names {
			if nm.Name != "_" {
				if o := a.c.pkg.Info.Defs[nm]; o != nil && isByteSlice(o.Type()) {
					if id := a.site(nm.Pos(), "param "+nm.Name); id >= 0 {
						st.env[o] = 1 << uint(id)
						st.mask[id] = stOwned
						a.sum.idParam[id] = idx
					}
				}
			}
			idx++
		}
	}
}

// harvestParams records, at one exit, which seeded params were released
// or stored on some path reaching it.
func (a *bufOwn) harvestParams(st *ownState) {
	for id, pi := range a.sum.idParam {
		m := st.mask[id]
		if pi >= a.sum.out.NumParams {
			continue
		}
		if m&(stReleased|stDeferredRel) != 0 {
			a.sum.out.ParamReleases[pi] = true
		}
		if m&stEscaped != 0 {
			a.sum.out.ParamStores[pi] = true
		}
	}
}

// harvestResults records which return operands carry an owned non-param
// buffer (params returned to the caller are aliases, not transfers of
// pool responsibility).
func (a *bufOwn) harvestResults(st *ownState, sets []uint64) {
	for i, set := range sets {
		if i >= len(a.sum.out.ResultOwned) {
			break
		}
		for id := 0; id < len(a.pos); id++ {
			if set&(1<<uint(id)) == 0 {
				continue
			}
			if _, isParam := a.sum.idParam[id]; isParam {
				continue
			}
			if st.mask[id]&stOwned != 0 {
				a.sum.out.ResultOwned[i] = true
			}
		}
	}
}

// isByteSlice reports whether t is a slice of bytes.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// reportOnce files a finding once per deduplication key.
func (a *bufOwn) reportOnce(key string, pos token.Pos, format string, args ...any) {
	if a.mute || a.rep[key] {
		return
	}
	a.rep[key] = true
	a.c.report(pos, "buf-own", format, args...)
}

// site returns the object id for an acquire site, allocating on first
// encounter; -1 when the per-function budget is exhausted.
func (a *bufOwn) site(pos token.Pos, what string) int {
	if id, ok := a.sites[pos]; ok {
		return id
	}
	if len(a.pos) >= maxBufObjs {
		return -1
	}
	id := len(a.pos)
	a.sites[pos] = id
	a.pos = append(a.pos, pos)
	a.what = append(a.what, what)
	return id
}

func (a *bufOwn) objectOf(id *ast.Ident) types.Object {
	if o := a.c.pkg.Info.Defs[id]; o != nil {
		return o
	}
	return a.c.pkg.Info.Uses[id]
}

// isPkgIdent reports whether x denotes the package with the given
// import path (or, when type resolution degraded, base name).
func (a *bufOwn) isPkgIdent(x ast.Expr, importPath string) bool {
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	if o, ok := a.c.pkg.Info.Uses[id]; ok {
		pn, ok := o.(*types.PkgName)
		if !ok {
			return false
		}
		p := pn.Imported().Path()
		return p == importPath || path.Base(p) == path.Base(importPath)
	}
	return id.Name == path.Base(importPath)
}

func (a *bufOwn) isBufpoolCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && a.isPkgIdent(sel.X, a.c.cfg.BufPoolPackage)
}

func (a *bufOwn) isProtoCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && a.isPkgIdent(sel.X, a.c.cfg.ProtoPackage)
}

// isMethodCall matches `<recv>.<name>(...)` where recv is a value, not
// a package qualifier.
func (a *bufOwn) isMethodCall(call *ast.CallExpr, name string) (*ast.SelectorExpr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if o, ok := a.c.pkg.Info.Uses[id]; ok {
			if _, isPkg := o.(*types.PkgName); isPkg {
				return nil, false
			}
		}
	}
	return sel, true
}

// calleeSummary resolves the call's static callee and returns its
// inferred summary when one changes caller behaviour: the in-flight
// SCC iterate first (summary mode), then the shared table. Dynamic
// dispatch and unknown callees return nil — the loan fallback.
func (a *bufOwn) calleeSummary(call *ast.CallExpr) *FuncSummary {
	fn := staticCallee(a.c.pkg.Info, call)
	if fn == nil {
		return nil
	}
	key := funcKey(fn)
	if a.cur != nil {
		if s, ok := a.cur[key]; ok {
			if s.interesting() {
				return s
			}
			return nil
		}
	}
	if s := a.c.summaries.Lookup(key); s != nil && s.interesting() {
		return s
	}
	return nil
}

// acquire allocates (or revisits) the abstract object for an acquire
// site, reporting the loop-leak when the previous iteration's buffer
// at this site is still owned.
func (a *bufOwn) acquire(st *ownState, pos token.Pos, what string, report bool) uint64 {
	id := a.site(pos, what)
	if id < 0 {
		return 0
	}
	if m := st.mask[id]; report && m&stOwned != 0 && m&stDeferredRel == 0 {
		a.reportOnce("loop:"+what+posKey(a.c, pos), pos,
			"%s re-acquired here while a previous acquisition from the same site is still owned — a prior loop iteration neither released it (bufpool.Put) nor transferred ownership", what)
	}
	st.mask[id] = stOwned
	return 1 << uint(id)
}

func posKey(c *checker, pos token.Pos) string {
	return c.pkg.Fset.Position(pos).String()
}

// release applies bufpool.Put to every object in S.
func (a *bufOwn) release(st *ownState, s uint64, pos token.Pos, deferred bool, report bool) {
	for id := 0; id < len(a.pos); id++ {
		if s&(1<<uint(id)) == 0 {
			continue
		}
		m := st.mask[id]
		if report && m&(stReleased|stDeferredRel) != 0 {
			a.reportOnce("dput:"+posKey(a.c, pos), pos,
				"double release: %s (from %s) is already returned to the pool on some path reaching this bufpool.Put",
				a.what[id], posKey(a.c, a.pos[id]))
		}
		if deferred {
			st.mask[id] = m | stDeferredRel
		} else {
			st.mask[id] = m&^stOwned | stReleased
		}
	}
}

// escape marks every owned object in S as transferred out of the
// function's responsibility. When flagBorrowed is set, borrowed wire
// data in S is a finding (stored/captured without TakeWire).
func (a *bufOwn) escape(st *ownState, s uint64, pos token.Pos, flagBorrowed bool, how string, report bool) {
	for id := 0; id < len(a.pos); id++ {
		if s&(1<<uint(id)) == 0 {
			continue
		}
		m := st.mask[id]
		if report && flagBorrowed && m&stBorrowed != 0 {
			a.reportOnce("besc:"+posKey(a.c, pos), pos,
				"borrowed wire data (from %s) %s without TakeWire; the pool may recycle the buffer under the reader — detach it first",
				a.what[id], how)
		}
		if m&stOwned != 0 {
			st.mask[id] = m&^stOwned | stEscaped
		}
	}
}

// useCheck flags reads of released buffers.
func (a *bufOwn) useCheck(st *ownState, s uint64, pos token.Pos, report bool) {
	if !report {
		return
	}
	for id := 0; id < len(a.pos); id++ {
		if s&(1<<uint(id)) == 0 {
			continue
		}
		if st.mask[id]&stReleased != 0 {
			a.reportOnce("uap:"+posKey(a.c, pos), pos,
				"use after release: %s (from %s) was returned to the pool on some path reaching this read",
				a.what[id], posKey(a.c, a.pos[id]))
		}
	}
}

// exitCheck reports owned objects that reach a return unreleased.
func (a *bufOwn) exitCheck(st *ownState, where token.Pos, report bool) {
	if !report {
		return
	}
	line := a.c.pkg.Fset.Position(where).Line
	for id := 0; id < len(a.pos); id++ {
		m := st.mask[id]
		if m&stOwned != 0 && m&stDeferredRel == 0 {
			a.reportOnce("leak:"+posKey(a.c, a.pos[id]), a.pos[id],
				"%s leaks: the path to the return on line %d neither releases it (bufpool.Put) nor transfers ownership (SetWire, store, return)",
				a.what[id], line)
		}
	}
}

// node is the transfer function for one CFG node.
func (a *bufOwn) node(st *ownState, n ast.Node, report bool) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		a.assign(st, s.Lhs, s.Rhs, report)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, nm := range vs.Names {
				lhs[i] = nm
			}
			a.assign(st, lhs, vs.Values, report)
		}
	case *ast.ReturnStmt:
		sets := make([]uint64, len(s.Results))
		for i, r := range s.Results {
			sets[i] = a.eval(st, r, report, true)
		}
		if a.sum != nil {
			// Harvest before the return-escape below: a param returned to
			// the caller is an alias, not a store.
			a.harvestParams(st)
			a.harvestResults(st, sets)
		}
		for i, r := range s.Results {
			a.escape(st, sets[i], r.Pos(), false, "returned", report)
		}
		a.exitCheck(st, s.Pos(), report)
	case returnMarker:
		if a.sum != nil {
			a.harvestParams(st)
		}
		a.exitCheck(st, s.Pos(), report)
	case *ast.DeferStmt:
		a.deferStmt(st, s, report)
	case *ast.GoStmt:
		a.eval(st, s.Call, report, true)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			set := a.eval(st, call, report, true)
			if set != 0 && report {
				// An acquire whose result is thrown away can never be
				// released.
				a.reportOnce("disc:"+posKey(a.c, call.Pos()), call.Pos(),
					"pooled buffer acquired and immediately discarded; bind the result and release it with bufpool.Put (or transfer ownership)")
			}
			return
		}
		a.eval(st, s.X, report, true)
	case *ast.IncDecStmt:
		a.eval(st, s.X, report, true)
	case *ast.SendStmt:
		a.eval(st, s.Chan, report, true)
		set := a.eval(st, s.Value, report, true)
		a.escape(st, set, s.Value.Pos(), true, "sent on a channel", report)
	case rangeHead:
		a.eval(st, s.stmt.X, report, true)
	case condAssume:
		a.assume(st, s)
	case ast.Expr:
		a.eval(st, s, report, true)
	}
}

// assume consumes a branch-polarity fact. When the condition is (a
// negation chain over) a guarded ok-variable — or a nil comparison of
// a guarded err-variable — and this path observed the acquire to have
// failed, the objects do not exist here and are un-acquired.
func (a *bufOwn) assume(st *ownState, c condAssume) {
	cond, val := c.cond, c.val
	for {
		if p, ok := cond.(*ast.ParenExpr); ok {
			cond = p.X
			continue
		}
		if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
			cond, val = u.X, !val
			continue
		}
		break
	}
	// `err != nil` observed true is the failure branch: normalize the
	// comparison to the ok-convention (true means the acquire succeeded).
	if be, ok := cond.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
		isNil := func(e ast.Expr) bool {
			id, ok := unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		switch {
		case isNil(be.Y):
			cond = unparen(be.X)
		case isNil(be.X):
			cond = unparen(be.Y)
		default:
			return
		}
		if be.Op == token.NEQ {
			val = !val
		}
	}
	id, ok := cond.(*ast.Ident)
	if !ok {
		return
	}
	o := a.objectOf(id)
	if o == nil {
		return
	}
	set, guarded := st.guard[o]
	if !guarded {
		return
	}
	delete(st.guard, o)
	if val {
		return
	}
	for idx := 0; idx < len(a.pos); idx++ {
		if set&(1<<uint(idx)) != 0 {
			st.mask[idx] &^= stOwned
		}
	}
}

// assign handles `lhs... = rhs...` including multi-value calls.
func (a *bufOwn) assign(st *ownState, lhs, rhs []ast.Expr, report bool) {
	if len(rhs) == 1 && len(lhs) > 1 {
		call, ok := rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		// `m, err := proto.DecodeBorrow(buf)`: the message variable
		// carries borrowed wire data.
		if a.isProtoCall(call, "DecodeBorrow") {
			for _, arg := range call.Args {
				a.eval(st, arg, report, true)
			}
			a.bindBorrow(st, lhs[0], call.Pos())
			a.clear(st, lhs[1:])
			return
		}
		set := a.eval(st, call, report, true)
		a.bind(st, lhs[0], set, report)
		a.clear(st, lhs[1:])
		// `buf, ok := acquire()`: the buffer is conditional on ok —
		// the branch observing ok == false un-acquires it.
		if set != 0 && len(lhs) == 2 {
			if id, ok := lhs[1].(*ast.Ident); ok && id.Name != "_" {
				if o := a.objectOf(id); o != nil {
					st.guard[o] = set
				}
			}
		}
		return
	}
	sets := make([]uint64, len(lhs))
	for i := range lhs {
		if i < len(rhs) {
			sets[i] = a.eval(st, rhs[i], report, true)
		}
	}
	for i := range lhs {
		a.bind(st, lhs[i], sets[i], report)
	}
}

// bindBorrow attaches a fresh borrow object to a decoded message
// variable.
func (a *bufOwn) bindBorrow(st *ownState, lhs ast.Expr, at token.Pos) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	o := a.objectOf(id)
	if o == nil {
		return
	}
	b := a.site(at, "borrow-decoded wire data")
	if b < 0 {
		return
	}
	st.mask[b] = stBorrowed
	st.msg[o] = 1 << uint(b)
}

// bind stores an object set into an lvalue. Identifiers get a strong
// update; field/global/index stores are ownership-transfer points.
func (a *bufOwn) bind(st *ownState, lhs ast.Expr, set uint64, report bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		o := a.objectOf(l)
		if o == nil {
			return
		}
		if v, ok := o.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// A package-level variable outlives the frame: storing there
			// transfers ownership, exactly like a field store.
			a.escape(st, set, l.Pos(), true, "stored to "+l.Name, report)
			return
		}
		if set == 0 {
			delete(st.env, o)
		} else {
			st.env[o] = set
		}
		delete(st.msg, o)
		delete(st.guard, o)
	default:
		// owner.buf = x, globalTable[i] = x, *p = x: the value leaves
		// the function's frame.
		a.eval(st, lhs, report, false)
		a.escape(st, set, lhs.Pos(), true, "stored to "+types.ExprString(lhs), report)
	}
}

// clear strongly drops bindings for the trailing results of a
// multi-value assignment (err variables and friends).
func (a *bufOwn) clear(st *ownState, lhs []ast.Expr) {
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
			if o := a.objectOf(id); o != nil {
				delete(st.env, o)
				delete(st.msg, o)
				delete(st.guard, o)
			}
		}
	}
}

func (a *bufOwn) deferStmt(st *ownState, s *ast.DeferStmt, report bool) {
	// `defer bufpool.Put(x)` releases at every exit from here on.
	if a.isBufpoolCall(s.Call, "Put") && len(s.Call.Args) == 1 {
		set := a.eval(st, s.Call.Args[0], report, false)
		a.release(st, set, s.Call.Pos(), true, report)
		return
	}
	// `defer func() { ...; bufpool.Put(x); ... }()`: scan the literal
	// for direct Puts of tracked variables.
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !a.isBufpoolCall(call, "Put") || len(call.Args) != 1 {
				return true
			}
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if o := a.objectOf(id); o != nil {
					a.release(st, st.env[o], call.Pos(), true, report)
				}
			}
			return true
		})
		return
	}
	a.eval(st, s.Call, report, true)
}

// eval computes the object set an expression may evaluate to, applying
// call effects along the way. use gates the use-after-release check on
// identifier reads (release sites check double-Put instead).
func (a *bufOwn) eval(st *ownState, e ast.Expr, report, use bool) uint64 {
	switch x := e.(type) {
	case *ast.Ident:
		o := a.objectOf(x)
		if o == nil {
			return 0
		}
		set := st.env[o]
		if use {
			a.useCheck(st, set, x.Pos(), report)
		}
		return set
	case *ast.CallExpr:
		return a.evalCall(st, x, report)
	case *ast.SelectorExpr:
		// m.Data after a borrow-mode decode is the borrowed wire slice.
		if x.Sel.Name == "Data" {
			if id, ok := x.X.(*ast.Ident); ok {
				if o := a.objectOf(id); o != nil {
					if set := st.msg[o]; set != 0 {
						return set
					}
				}
			}
		}
		a.eval(st, x.X, report, use)
		return 0
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b != nil {
				a.eval(st, b, report, true)
			}
		}
		// Reslicing preserves identity: buf[:0] is still the pooled
		// buffer.
		return a.eval(st, x.X, report, use)
	case *ast.IndexExpr:
		a.eval(st, x.Index, report, true)
		a.eval(st, x.X, report, use)
		return 0
	case *ast.ParenExpr:
		return a.eval(st, x.X, report, use)
	case *ast.StarExpr:
		return a.eval(st, x.X, report, use)
	case *ast.UnaryExpr:
		return a.eval(st, x.X, report, use)
	case *ast.TypeAssertExpr:
		return a.eval(st, x.X, report, use)
	case *ast.BinaryExpr:
		a.eval(st, x.X, report, true)
		a.eval(st, x.Y, report, true)
		return 0
	case *ast.CompositeLit:
		// Placing a tracked value in a composite literal is a loan to
		// whoever consumes the literal (the caller still releases), so
		// elements are uses, not transfers.
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				a.eval(st, kv.Value, report, true)
				continue
			}
			a.eval(st, el, report, true)
		}
		return 0
	case *ast.FuncLit:
		a.closure(st, x, report)
		return 0
	case *ast.KeyValueExpr:
		a.eval(st, x.Value, report, true)
		return 0
	}
	return 0
}

func (a *bufOwn) evalCall(st *ownState, call *ast.CallExpr, report bool) uint64 {
	switch {
	case a.isBufpoolCall(call, "Get"):
		for _, arg := range call.Args {
			a.eval(st, arg, report, true)
		}
		return a.acquire(st, call.Pos(), "bufpool.Get buffer", report)

	case a.isBufpoolCall(call, "Put"):
		var set uint64
		if len(call.Args) == 1 {
			set = a.eval(st, call.Args[0], report, false)
		}
		a.release(st, set, call.Pos(), false, report)
		return 0

	case a.isProtoCall(call, "DecodeBorrowInto"):
		for _, arg := range call.Args {
			a.eval(st, arg, report, true)
		}
		if len(call.Args) >= 1 {
			a.bindBorrow(st, call.Args[0], call.Pos())
		}
		return 0

	case a.isProtoCall(call, "DecodeBorrow"):
		// Result unused or single-assigned without the err: still
		// evaluate operands; the borrow link is made in assign().
		for _, arg := range call.Args {
			a.eval(st, arg, report, true)
		}
		return 0
	}

	if sel, ok := a.isMethodCall(call, "TakeWire"); ok && len(call.Args) == 0 {
		// The caller now owns the detached wire buffer; the message's
		// borrow link is resolved.
		a.eval(st, sel.X, report, true)
		if id, ok := sel.X.(*ast.Ident); ok {
			if o := a.objectOf(id); o != nil {
				delete(st.msg, o)
			}
		}
		return a.acquire(st, call.Pos(), "TakeWire buffer", report)
	}

	if sel, ok := a.isMethodCall(call, "SetWire"); ok && len(call.Args) == 1 {
		// The message takes the buffer; its consumer releases via
		// TakeWire.
		a.eval(st, sel.X, report, true)
		set := a.eval(st, call.Args[0], report, true)
		a.escape(st, set, call.Pos(), false, "", report)
		return 0
	}

	if sel, ok := a.isMethodCall(call, "AppendEncode"); ok && len(call.Args) == 1 {
		// The result aliases (extends) the destination buffer.
		a.eval(st, sel.X, report, true)
		return a.eval(st, call.Args[0], report, true)
	}

	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		for _, arg := range call.Args[1:] {
			a.eval(st, arg, report, true)
		}
		return a.eval(st, call.Args[0], report, true)
	}

	// A callee with an inferred summary applies its effects here: a
	// may-released param argument is treated as released (a later Put
	// is a double-release), a stored param is an ownership transfer
	// (borrowed wire data passed there is a finding), and an owned
	// first result is an acquire the caller must discharge.
	if s := a.calleeSummary(call); s != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			a.eval(st, sel.X, report, true)
		}
		for i, arg := range call.Args {
			set := a.eval(st, arg, report, true)
			if set == 0 || i >= s.NumParams {
				continue
			}
			if s.ParamStores[i] {
				a.escape(st, set, arg.Pos(), true, "passed to "+calleeName(call)+", which stores it", report)
			}
			if s.ParamReleases[i] {
				a.release(st, set, arg.Pos(), false, report)
			}
		}
		if len(s.ResultOwned) > 0 && s.ResultOwned[0] {
			return a.acquire(st, call.Pos(), calleeName(call)+" result buffer", report)
		}
		return 0
	}

	// Generic call: every operand is a loan; ownership stays put.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		a.eval(st, sel.X, report, true)
	}
	for _, arg := range call.Args {
		a.eval(st, arg, report, true)
	}
	return 0
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return "call"
}

// closure handles a function literal: captured owned buffers escape
// (the literal may run at any time), and captured borrowed wire data
// is a finding — by the time the closure runs, the pool may have
// recycled the buffer.
func (a *bufOwn) closure(st *ownState, lit *ast.FuncLit, report bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.SelectorExpr:
			if m.Sel.Name != "Data" {
				return true
			}
			id, ok := m.X.(*ast.Ident)
			if !ok {
				return true
			}
			o := a.objectOf(id)
			if o == nil {
				return true
			}
			if set := st.msg[o]; set != 0 && report {
				a.reportOnce("bcap:"+posKey(a.c, m.Pos()), m.Pos(),
					"borrowed wire data %s.Data captured by a closure without TakeWire; detach the buffer before deferring work that reads it",
					id.Name)
			}
		case *ast.Ident:
			if o := a.objectOf(m); o != nil {
				if set := st.env[o]; set != 0 {
					a.escape(st, set, m.Pos(), false, "", report)
				}
			}
		}
		return true
	})
}
