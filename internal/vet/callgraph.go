package vet

// Static call resolution for the lock-order analysis. Functions are
// identified by stable string keys (import path + receiver + name) so
// facts collected in one worker's type universe can be joined with
// another's — cmd/mermaid-vet gives every worker its own FileSet and
// importer, and go/types object identity does not survive that
// boundary.
//
// Only statically resolvable callees are named: direct calls to
// package functions and concrete-receiver method calls. Calls through
// interface methods, stored function values and function literals are
// dynamic dispatch; lock-order resolves interface calls by method name
// and otherwise treats the callee as unknown.

import (
	"go/ast"
	"go/types"
)

// funcKey is the stable cross-package identity of a function:
// "pkg/path.Name" for package functions, "pkg/path.(Recv).Name" for
// methods (pointer receivers and value receivers share a key).
func funcKey(fn *types.Func) string {
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
		if n, ok := t.(*types.Named); ok {
			return pkg + ".(" + n.Obj().Name() + ")." + fn.Name()
		}
		return pkg + ".(?)." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// interfaceRecv reports whether fn is declared on an interface — a
// call through it is dynamic dispatch.
func interfaceRecv(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// staticCallee resolves the one function a call can reach, or nil when
// dispatch is dynamic (interface methods, func-typed values, literals)
// or the callee could not be typed.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fn]; ok {
			// A selection: method value or field access.
			if s.Kind() != types.MethodVal {
				return nil // calling a func-typed field
			}
			f, _ := s.Obj().(*types.Func)
			if f == nil || interfaceRecv(f) {
				return nil
			}
			return f
		}
		// Package-qualified call (pkg.Fn).
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	if f == nil || interfaceRecv(f) {
		return nil
	}
	return f
}

// sccOrder returns the strongly connected components of the graph whose
// node v has the successors succs[v], in bottom-up (callees-first)
// order, via Tarjan's algorithm: a component is emitted only after
// every component it reaches.
func sccOrder(succs [][]int) [][]int {
	n := len(succs)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	next := 0

	// Iterative Tarjan: each frame is (node, position in its succ list).
	type frame struct{ v, si int }
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{root, 0}}
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.si == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.si < len(succs[v]) {
				w := succs[v][fr.si]
				fr.si++
				if index[w] == -1 {
					frames = append(frames, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return sccs
}
