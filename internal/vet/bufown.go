package vet

// buf-own: every pooled buffer is written in one of two ownership
// shapes, and the rule checks the shape, not the flow.
//
//   - Owned by a body: `x := bufpool.Get(n)` is a top-level statement
//     of a function or function-literal body, followed — after any
//     other defers — by `defer bufpool.Put(x)`. The buffer then lives
//     to the end of that body on every path out of it (returns,
//     panics, a process Exit) and is released exactly once. A hold
//     taken once per loop iteration or on one branch moves into a
//     helper or a function literal.
//   - Owned by a field: the Get result goes straight into a struct
//     field (`o.buf = bufpool.Get(n)`, possibly through a reslice or
//     AppendEncode) or into a message with `m.SetWire(bufpool.Get(n))`.
//     The field is released by `bufpool.Put(<field>)`, and a message's
//     wire by `bufpool.Put(m.TakeWire())`, anywhere.
//
// A parameter is a loan from its owner: the callee may read it, and
// neither releases it nor parks it in a package-level variable. The
// rule reports a Get in neither shape, a Put of a local that is not
// deferred (unless its Get was already reported), a Put of a
// parameter, a Get passed as a function value, a return of a pooled
// buffer, a parameter stored to a package-level variable, and borrowed
// wire data — `m.Data` after `proto.DecodeBorrow` or `DecodeBorrowInto`
// — stored to a field, global or index or captured by a closure before
// `m.TakeWire()` detached it. The rule accepts only these shapes, not
// every correct lifetime: telling a balanced explicit Put from a leak
// takes a dataflow proof over every path, and a buffer in one of these
// shapes needs none. Every finding is rule buf-own.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// checkBufOwn checks every function declaration and function literal
// body in the file.
func (c *checker) checkBufOwn(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		where := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.bufOwnBody(lit.Type, lit.Body, "a function literal in "+where)
			}
			return true
		})
		c.bufOwnBody(fd.Type, fd.Body, where)
		c.borrowedEscapes(fd.Body, where)
	}
}

// bufOwnBody checks one body's own statements; nested function
// literals are checked as bodies of their own.
func (c *checker) bufOwnBody(ft *ast.FuncType, body *ast.BlockStmt, where string) {
	params := map[types.Object]bool{}
	for _, field := range ft.Params.List {
		for _, nm := range field.Names {
			if o := c.objOf(nm); o != nil {
				params[o] = true
			}
		}
	}
	owned := map[*ast.CallExpr]bool{} // Gets in an ownership shape
	bound := map[*ast.CallExpr]*ast.Ident{}
	for i, st := range body.List {
		x, get := c.bindsGet(st)
		if get == nil {
			continue
		}
		bound[get] = x
		for _, next := range body.List[i+1:] {
			d, ok := next.(*ast.DeferStmt)
			if !ok {
				break
			}
			if c.isBufpoolCall(d.Call, "Put") && len(d.Call.Args) == 1 && c.objOf(d.Call.Args[0]) == c.objOf(x) {
				owned[get] = true
				break
			}
		}
	}
	gets := map[types.Object]*ast.CallExpr{} // locals this body binds to a Get
	deferred := map[*ast.CallExpr]bool{}
	called := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // a body of its own
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.AssignStmt:
			c.bufOwnAssign(x, params, owned, gets, where)
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if c.getIn(r) != nil || gets[c.objOf(unwrapSlice(r))] != nil {
					c.report(r.Pos(), "buf-own",
						"%s returns a pooled buffer (%s); a buffer is owned by a body or a field, never handed out by a return — let the caller Get it, defer its Put, and pass it in",
						where, types.ExprString(r))
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				called[sel] = true
			}
			if _, ok := c.isMethodCall(x, "SetWire"); ok && len(x.Args) == 1 {
				if get := c.getIn(x.Args[0]); get != nil {
					owned[get] = true
				}
			}
			switch {
			case c.isBufpoolCall(x, "Get") && !owned[x]:
				if v, ok := bound[x]; ok {
					c.report(x.Pos(), "buf-own",
						"%s := bufpool.Get in %s is not followed by defer bufpool.Put(%s); write the hold as the Get then defer bufpool.Put(%s) (after any other defers) so it is released once on every path",
						v.Name, where, v.Name, v.Name)
				} else {
					c.report(x.Pos(), "buf-own",
						"bufpool.Get in %s is neither owned by its body (a top-level x := bufpool.Get(n) followed by defer bufpool.Put(x)) nor stored straight into a field; move the hold into a helper or function literal written in that shape",
						where)
				}
			case c.isBufpoolCall(x, "Put") && len(x.Args) == 1:
				c.bufOwnPut(x, deferred[x], params, gets, owned, where)
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "Get" && !called[x] && c.isPkgIdent(x.X, c.cfg.BufPoolPackage) {
				c.report(x.Pos(), "buf-own",
					"bufpool.Get passed as a function value in %s; the buffer the callee allocates has no owner — Get it in the owning body and pass the buffer",
					where)
			}
		}
		return true
	})
}

// bufOwnAssign records the Gets an assignment stores straight into a
// field and the locals it binds to one, and reports a parameter stored
// to a package-level variable.
func (c *checker) bufOwnAssign(as *ast.AssignStmt, params map[types.Object]bool, owned map[*ast.CallExpr]bool, gets map[types.Object]*ast.CallExpr, where string) {
	if len(as.Rhs) == 1 {
		if get := c.getIn(as.Rhs[0]); get != nil {
			if _, field := as.Lhs[0].(*ast.SelectorExpr); field {
				owned[get] = true
			} else if x := c.objOf(as.Lhs[0]); x != nil {
				gets[x] = get
			}
		}
	}
	for i, l := range as.Lhs {
		if i >= len(as.Rhs) || !c.isPackageVar(l) {
			continue
		}
		if r := unwrapSlice(as.Rhs[i]); params[c.objOf(r)] {
			c.report(l.Pos(), "buf-own",
				"parameter %s stored to package-level %s in %s; a parameter is a loan from its owner and must not outlive the call",
				types.ExprString(r), types.ExprString(l), where)
		}
	}
}

// bufOwnPut checks one bufpool.Put: a message's wire and a field are
// released anywhere, a body's own local only by a defer.
func (c *checker) bufOwnPut(call *ast.CallExpr, deferred bool, params map[types.Object]bool, gets map[types.Object]*ast.CallExpr, owned map[*ast.CallExpr]bool, where string) {
	arg := call.Args[0]
	if tw, ok := arg.(*ast.CallExpr); ok {
		if _, ok := c.isMethodCall(tw, "TakeWire"); ok {
			return
		}
	}
	if _, field := arg.(*ast.SelectorExpr); field {
		return
	}
	x := c.objOf(arg)
	switch {
	case params[x]:
		c.report(call.Pos(), "buf-own",
			"bufpool.Put(%s) in %s releases a parameter; a parameter is a loan, released by whoever owns the buffer (its body's defer, or the field holding it)",
			x.Name(), where)
	case deferred && x != nil:
	case gets[x] != nil && !owned[gets[x]]:
		// Its Get is reported: one finding per hold.
	default:
		c.report(call.Pos(), "buf-own",
			"bufpool.Put(%s) in %s is not deferred; a body owns a buffer from a top-level Get followed by defer bufpool.Put, and releases it there",
			types.ExprString(arg), where)
	}
}

// borrowedEscapes reports borrowed wire data — `m.Data` of a message a
// borrow-mode decode filled — stored to a field, global or index, or
// captured by a function literal, before `m.TakeWire()` detached the
// buffer from the pool's reach. The whole declaration, literals
// included, is one scope: a decode in the body is seen in its
// literals.
func (c *checker) borrowedEscapes(body *ast.BlockStmt, where string) {
	borrowed := map[string]bool{}
	taken := map[string]token.Pos{} // the first TakeWire on each message
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if call, ok := x.Rhs[0].(*ast.CallExpr); ok && len(x.Rhs) == 1 && c.isProtoCall(call, "DecodeBorrow") {
				borrowed[identName(x.Lhs[0])] = true
			}
		case *ast.CallExpr:
			if c.isProtoCall(x, "DecodeBorrowInto") && len(x.Args) == 2 {
				arg := x.Args[0]
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = u.X
				}
				borrowed[identName(arg)] = true
			}
			if sel, ok := c.isMethodCall(x, "TakeWire"); ok {
				if m := identName(sel.X); m != "" && taken[m] == token.NoPos {
					taken[m] = x.Pos()
				}
			}
		}
		return true
	})
	delete(borrowed, "")
	if len(borrowed) == 0 {
		return
	}
	// data returns m when e is m.Data (or a reslice of it) for a
	// message m still borrowed at pos.
	data := func(e ast.Expr, pos token.Pos) string {
		sel, ok := unwrapSlice(e).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Data" {
			return ""
		}
		m := identName(sel.X)
		if !borrowed[m] || taken[m] != token.NoPos && taken[m] < pos {
			return ""
		}
		return m
	}
	var walk func(n ast.Node, lit *ast.FuncLit)
	walk = func(n ast.Node, lit *ast.FuncLit) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if x != lit {
					walk(x.Body, x)
					return false
				}
			case *ast.SelectorExpr:
				if lit != nil && data(x, lit.Pos()) != "" {
					c.report(x.Pos(), "buf-own",
						"borrowed wire data %s captured by a function literal in %s without TakeWire; detach the buffer before deferring work that reads it",
						types.ExprString(x), where)
				}
			case *ast.AssignStmt:
				for i, l := range x.Lhs {
					if i >= len(x.Rhs) || data(x.Rhs[i], x.Pos()) == "" {
						continue
					}
					if _, local := l.(*ast.Ident); local && !c.isPackageVar(l) {
						continue
					}
					c.report(x.Rhs[i].Pos(), "buf-own",
						"borrowed wire data %s stored to %s in %s without TakeWire; the pool may recycle the buffer under the reader — detach it first",
						types.ExprString(x.Rhs[i]), types.ExprString(l), where)
				}
			}
			return true
		})
	}
	walk(body, nil)
}

// bindsGet returns x and the Get when st is `x := bufpool.Get(n)` (or
// `x = ...`, through a reslice or AppendEncode).
func (c *checker) bindsGet(st ast.Stmt) (*ast.Ident, *ast.CallExpr) {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	x, ok := as.Lhs[0].(*ast.Ident)
	if !ok || c.objOf(x) == nil {
		return nil, nil
	}
	return x, c.getIn(as.Rhs[0])
}

// getIn returns the bufpool.Get call e evaluates to the buffer of,
// through parentheses, reslicing and AppendEncode, or nil.
func (c *checker) getIn(e ast.Expr) *ast.CallExpr {
	for {
		e = unwrapSlice(e)
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return nil
		}
		if c.isBufpoolCall(call, "Get") {
			return call
		}
		if _, ok := c.isMethodCall(call, "AppendEncode"); !ok || len(call.Args) != 1 {
			return nil
		}
		e = call.Args[0]
	}
}

// unwrapSlice strips parentheses and reslicing: buf[:0] is still buf.
func unwrapSlice(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// identName returns the name e spells when it is an identifier, else "".
func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// objOf returns the object an identifier e declares or uses, or nil
// for anything else (the blank identifier included).
func (c *checker) objOf(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := c.pkg.Info.Defs[id]; o != nil {
		return o
	}
	return c.pkg.Info.Uses[id]
}

// isPackageVar reports whether e names a package-level variable.
func (c *checker) isPackageVar(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := c.pkg.Info.Uses[id].(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isPkgIdent reports whether x denotes the package with the given
// import path (or, when type resolution degraded, base name).
func (c *checker) isPkgIdent(x ast.Expr, importPath string) bool {
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	if o, ok := c.pkg.Info.Uses[id]; ok {
		pn, ok := o.(*types.PkgName)
		if !ok {
			return false
		}
		p := pn.Imported().Path()
		return p == importPath || path.Base(p) == path.Base(importPath)
	}
	return id.Name == path.Base(importPath)
}

func (c *checker) isBufpoolCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && c.isPkgIdent(sel.X, c.cfg.BufPoolPackage)
}

func (c *checker) isProtoCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && c.isPkgIdent(sel.X, c.cfg.ProtoPackage)
}

// isMethodCall matches `<recv>.<name>(...)` where recv is a value, not
// a package qualifier.
func (c *checker) isMethodCall(call *ast.CallExpr, name string) (*ast.SelectorExpr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := c.pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return nil, false
		}
	}
	return sel, true
}
