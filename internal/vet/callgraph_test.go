package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

// loadInline type-checks one inline source file as a package.
func loadInline(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return NewPackage(fset, pkgPath, []*ast.File{f}, nil)
}

func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	if fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func); ok {
		return fn
	}
	t.Fatalf("no function %s in scope", name)
	return nil
}

func TestFuncKeyFormats(t *testing.T) {
	pkg := loadInline(t, "fixture/cg", `package cg
type T struct{}
func (tt *T) Ptr()  {}
func (tt T) Val()   {}
func Plain()        {}
`)
	if got := funcKey(lookupFunc(t, pkg, "Plain")); got != "fixture/cg.Plain" {
		t.Errorf("package func key = %q", got)
	}
	tn := pkg.Types.Scope().Lookup("T").Type()
	for _, m := range []string{"Ptr", "Val"} {
		obj, _, _ := types.LookupFieldOrMethod(tn, true, pkg.Types, m)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("method %s not found", m)
		}
		if got := funcKey(fn); got != "fixture/cg.(T)."+m {
			t.Errorf("method key for %s = %q; pointer and value receivers must share the (T) form", m, got)
		}
	}
}

// callIn returns the first call expression inside the named function.
func callIn(t *testing.T, pkg *Package, name string) *ast.CallExpr {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil {
				continue
			}
			var call *ast.CallExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && call == nil {
					call = c
				}
				return call == nil
			})
			if call != nil {
				return call
			}
		}
	}
	t.Fatalf("no call found in %s", name)
	return nil
}

func TestStaticCalleeResolution(t *testing.T) {
	pkg := loadInline(t, "fixture/cg", `package cg
type T struct{}
func (tt *T) M() {}
type I interface{ M() }
func helper() {}

func direct()            { helper() }
func method(tt *T)       { tt.M() }
func viaIface(i I)       { i.M() }
func viaValue(fn func()) { fn() }
func viaLit()            { func() {}() }
`)
	if fn := staticCallee(pkg.Info, callIn(t, pkg, "direct")); fn == nil || fn.Name() != "helper" {
		t.Errorf("direct call not resolved: %v", fn)
	}
	if fn := staticCallee(pkg.Info, callIn(t, pkg, "method")); fn == nil || fn.Name() != "M" {
		t.Errorf("concrete method call not resolved: %v", fn)
	}
	if fn := staticCallee(pkg.Info, callIn(t, pkg, "viaIface")); fn != nil {
		t.Errorf("interface dispatch must be unresolved, got %v", fn)
	}
	if fn := staticCallee(pkg.Info, callIn(t, pkg, "viaValue")); fn != nil {
		t.Errorf("func-value call must be unresolved, got %v", fn)
	}
	if fn := staticCallee(pkg.Info, callIn(t, pkg, "viaLit")); fn != nil {
		t.Errorf("literal call must be unresolved, got %v", fn)
	}
}

// callGraph is the same-package static call graph of pkg's function
// declarations: names[i] calls names[j] for every j in succs[i].
func callGraph(pkg *Package) (names []string, succs [][]int) {
	index := map[*types.Func]int{}
	var bodies []*ast.BlockStmt
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				index[pkg.Info.Defs[fd.Name].(*types.Func)] = len(names)
				names = append(names, fd.Name.Name)
				bodies = append(bodies, fd.Body)
			}
		}
	}
	succs = make([][]int, len(names))
	for i, body := range bodies {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if j, ok := index[staticCallee(pkg.Info, call)]; ok {
					succs[i] = append(succs[i], j)
				}
			}
			return true
		})
	}
	return names, succs
}

func TestSCCOrderBottomUp(t *testing.T) {
	pkg := loadInline(t, "fixture/cg", `package cg
func leaf() {}
func a(n int) { if n > 0 { b(n - 1) }; leaf() }
func b(n int) { a(n) }
func top()    { a(3) }
func self(n int) { if n > 0 { self(n - 1) } }
`)
	names, succs := callGraph(pkg)
	sccs := sccOrder(succs)

	comp := map[string]int{}
	for ci, scc := range sccs {
		for _, i := range scc {
			comp[names[i]] = ci
		}
	}
	// Callees-first: every static callee outside a function's SCC must
	// sit in an earlier component.
	for i, ss := range succs {
		for _, j := range ss {
			ni, nj := names[i], names[j]
			if comp[ni] != comp[nj] && comp[nj] > comp[ni] {
				t.Errorf("callee %s (comp %d) emitted after caller %s (comp %d)", nj, comp[nj], ni, comp[ni])
			}
		}
	}
	if comp["a"] != comp["b"] {
		t.Errorf("mutually recursive a and b must share an SCC: %d vs %d", comp["a"], comp["b"])
	}
	if comp["leaf"] >= comp["a"] {
		t.Errorf("leaf (comp %d) must precede the a/b component (%d)", comp["leaf"], comp["a"])
	}
	if comp["top"] <= comp["a"] {
		t.Errorf("top (comp %d) must follow the a/b component (%d)", comp["top"], comp["a"])
	}
	for _, scc := range sccs {
		if len(scc) == 1 && names[scc[0]] == "self" && !slices.Contains(succs[scc[0]], scc[0]) {
			t.Error("self's component must carry its self-edge")
		}
	}
}
