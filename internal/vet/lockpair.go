package vet

// lock-pairing: every semaphore hold is written in one shape,
//
//	x.P(p)
//	defer m.trace(...) // any other defers, run after the release
//	defer x.V()
//
// a top-level statement of a function or function-literal body,
// followed — after any other defers — by `defer x.V()` on the same
// receiver. A hold then lasts from its P to the end of that body on
// every path out of it (returns, panics, a process Exit), so pairing is
// a lexical fact of the statement list and needs no control-flow
// analysis. A loop that takes the lock once per iteration moves the
// hold into a helper or a function literal. The rule accepts only this
// shape, not every correct one: an explicit V, released per branch or
// from a completion callback, is reported even when it balances,
// because telling a balanced one from a leak takes a dataflow proof
// over every path, and a hold in this shape needs none. V without a
// P — semaphore signalling, the producer half of a rendezvous — is not
// a hold and is not checked. Functions named P or V, the semaphore
// implementations themselves, are exempt.

import (
	"go/ast"
	"go/types"
)

// checkLockPairing checks every function declaration and function
// literal body in the file.
func (c *checker) checkLockPairing(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "P" || fd.Name.Name == "V" {
			continue
		}
		where := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.lockPairBody(lit.Body, "a function literal in "+where)
			}
			return true
		})
		c.lockPairBody(fd.Body, where)
	}
}

// lockPairBody checks one body's own statements; nested function
// literals are checked as bodies of their own.
func (c *checker) lockPairBody(body *ast.BlockStmt, where string) {
	top := map[*ast.CallExpr]bool{}
	for i, st := range body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, _ := es.X.(*ast.CallExpr)
		recv := semaOp(call, "P")
		if recv == "" {
			continue
		}
		top[call] = true
		got := "" // the receiver of the first deferred V after the P
		for _, next := range body.List[i+1:] {
			d, ok := next.(*ast.DeferStmt)
			if !ok {
				break
			}
			if got = semaOp(d.Call, "V"); got != "" {
				break
			}
		}
		switch got {
		case recv:
		case "":
			c.report(st.Pos(), "lock-pairing",
				"%s.P acquired in %s is not followed by defer %s.V(); write the hold as %s.P then defer %s.V() (after any other defers) so it lasts to the end of the body on every path",
				recv, where, recv, recv, recv)
		default:
			c.report(st.Pos(), "lock-pairing",
				"%s.P acquired in %s is followed by defer %s.V(), which releases another semaphore; pair the hold with defer %s.V()",
				recv, where, got, recv)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // a body of its own
		case *ast.CallExpr:
			if recv := semaOp(x, "P"); recv != "" && !top[x] {
				c.report(x.Pos(), "lock-pairing",
					"%s.P in %s is not a top-level statement of its body; move the hold into a helper or function literal written as %s.P then defer %s.V()",
					recv, where, recv, recv)
			}
		}
		return true
	})
}

// semaOp returns the receiver x of a call x.<name>(...), and "" for any
// other call.
func semaOp(call *ast.CallExpr, name string) string {
	if call == nil {
		return ""
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
		return types.ExprString(sel.X)
	}
	return ""
}
