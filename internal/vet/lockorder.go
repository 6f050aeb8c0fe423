package vet

// lock-order: module-global deadlock analysis over the simulation's
// blocking primitives. Per function, one source-order walk tracks the
// set of lock classes held at each program point and records three
// kinds of facts:
//
//   - acquires with the held-set at the acquire site (the classic
//     A-held-while-taking-B edge);
//   - every statically resolvable module-internal call, with the
//     held-set — so an edge through a helper (f holds A, calls g, g
//     takes B) is found without annotating g;
//   - blocking remote calls (Endpoint.Call and friends) with the
//     held-set and the message kind(s) they can carry.
//
// The global phase (driven by cmd/mermaid-vet) joins the per-package
// facts: transitive acquire sets are propagated bottom-up through call edges
// and — via the Handle(kind, handler) registry — through remote
// dispatch, then every held-while-acquiring pair becomes an edge in a
// lock-class graph. Two findings come out:
//
//   - lock-order: an edge participating in a cycle of length ≥ 2 — two
//     functions (possibly on different hosts, via remote dispatch)
//     take the same classes in opposite orders;
//   - lock-remote: a lock held across a blocking remote call whose
//     handler can transitively reacquire the same class — the remote
//     side then blocks on a class an in-flight rendezvous pins, which
//     is how distributed manager transactions deadlock. Same-class
//     reacquisition is only reported here, never as a length-1 cycle:
//     the class abstraction (one node per field, not per instance)
//     cannot tell two page locks apart, and intra-host code never
//     re-enters a held instance.
//
// Lock classes are per-field ("pkg.Type.field" for `ent.lock`-style
// receivers), per-global, or per-local ("local:<funcKey>.<name>") —
// instance-insensitive, the standard deadlock-analysis abstraction.
// `defer x.V()` keeps the class held to the end of the function (the
// release happens at exit, so everything after the defer runs under
// the lock); lock-pairing makes that the only way a hold is written in
// the lock packages, which is why source order is enough.
// Resource.Use acquires and releases within the callee, so it
// contributes an edge but no lasting hold. Sites justified by design
// carry `vet:ignore lock-order` or `vet:ignore lock-remote` and
// contribute no edges.
//
// The analysis degrades to silence on package subsets: no facts, no
// findings.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockAcquire is one acquire site with its held-set.
type LockAcquire struct {
	Class   string
	Held    []string
	Pos     token.Position
	Ignored bool // vet:ignore lock-order on the line
	// Transient marks acquire-and-release-within-callee sites
	// (Resource.Use): an ordering edge, but no lasting hold.
	Transient bool
}

// LockCallEdge is one statically resolved module-internal call with
// the held-set at the call site.
type LockCallEdge struct {
	// Callee is the funcKey of the target, or "iface:<Name>" for
	// interface dispatch (resolved by name in the global phase).
	Callee string
	Held   []string
	Pos    token.Position
}

// LockRemote is one blocking remote call with the held-set.
type LockRemote struct {
	// Kinds are the message-kind constant names the call can carry
	// (empty when the kind is not statically evident).
	Kinds   []string
	Held    []string
	Pos     token.Position
	Ignored bool // vet:ignore lock-remote on the line
}

// LockHandlerReg is one Handle(kind, handler) registration with the
// handler's identity.
type LockHandlerReg struct {
	Kind    string
	Handler string // funcKey; "" when the handler expression is dynamic
}

// FuncLockFacts is everything one function contributes.
type FuncLockFacts struct {
	Key      string
	Acquires []LockAcquire
	Calls    []LockCallEdge
	Remotes  []LockRemote
}

// LockFacts is one package's contribution to the global analysis.
type LockFacts struct {
	Pkg   string
	Funcs []*FuncLockFacts
	Regs  []LockHandlerReg
}

// LockGraph sizes the global lock-class graph, for the coverage
// report.
type LockGraph struct {
	Classes int
	Edges   int
}

// CollectLockFacts gathers this package's lock facts. Handler
// registrations are collected from every package; function bodies are
// analyzed only in LockOrderPackages.
func CollectLockFacts(pkg *Package, cfg *Config) *LockFacts {
	facts := &LockFacts{Pkg: pkg.Path}
	for _, f := range pkg.Files {
		collectHandlerRegs(pkg, f, facts)
	}
	if !slices.Contains(cfg.LockOrderPackages, pkg.Path) {
		return facts
	}
	lc := &lockCollector{pkg: pkg}
	for _, f := range pkg.Files {
		lc.ignores = collectIgnores(pkg.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if ff := lc.collectFunc(fd, fn); ff != nil {
				facts.Funcs = append(facts.Funcs, ff)
			}
		}
	}
	return facts
}

// exprConstName returns the bare name an identifier or qualified
// identifier spells (proto.KindGetPage → "KindGetPage"), "" otherwise.
func exprConstName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// collectHandlerRegs records Handle(kind, handler) with the handler
// function resolved to its key.
func collectHandlerRegs(pkg *Package, f *ast.File, facts *LockFacts) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Handle" {
			return true
		}
		kind := exprConstName(call.Args[0])
		if !strings.HasPrefix(kind, "Kind") {
			return true
		}
		handler := ""
		switch h := unparen(call.Args[1]).(type) {
		case *ast.SelectorExpr:
			if s, ok := pkg.Info.Selections[h]; ok && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok {
					handler = funcKey(fn)
				}
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[h].(*types.Func); ok {
				handler = funcKey(fn)
			}
		}
		facts.Regs = append(facts.Regs, LockHandlerReg{Kind: kind, Handler: handler})
		return true
	})
}

type lockCollector struct {
	pkg     *Package
	ignores map[int][]string
}

// acquireNames / releaseNames are the method names treated as lock
// operations, matching lock-pairing's name-based convention.
var acquireNames = map[string]bool{"P": true, "Acquire": true, "Lock": true}
var releaseNames = map[string]bool{"V": true, "Release": true, "Unlock": true}

// remoteCallNames are Endpoint methods that block the calling process
// on a remote rendezvous.
var remoteCallNames = map[string]bool{
	"Call": true, "CallBlocking": true, "CallMulticast": true, "CallAll": true, "CallQuorum": true,
}

func (lc *lockCollector) ignored(pos token.Pos, rule string) bool {
	line := lc.pkg.Fset.Position(pos).Line
	for _, d := range lc.ignores[line] {
		if strings.HasPrefix(d, "vet:ignore "+rule) {
			return true
		}
	}
	return false
}

// collectFunc walks one function body in source order and returns its
// facts (nil when the function touches no locks and makes no calls).
// In the lock-pairing packages every hold is `x.P` then `defer x.V()`,
// a top-level statement of its body (lockpair.go), so it lasts from its
// P to the end of the function: the held set at a call is the set of
// acquires above it, and one pass finds it without a CFG. An explicit
// release (Resource.Use's own, outside that scope) drops the class from
// then on. Deferred calls run at exit and function literals at some
// other time, under unknown holds; the walk skips both.
func (lc *lockCollector) collectFunc(fd *ast.FuncDecl, fn *types.Func) *FuncLockFacts {
	key := funcKey(fn)
	ff := &FuncLockFacts{Key: key}
	held := map[string]bool{}
	seenCall := map[string]bool{}

	heldSnapshot := func() []string {
		if len(held) == 0 {
			return nil
		}
		out := make([]string, 0, len(held))
		for k := range held {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			name := sel.Sel.Name
			switch {
			case acquireNames[name], name == "Use":
				// Resource.Use acquires and releases inside the callee: an
				// ordering edge with no lasting hold.
				if class := lc.lockClass(sel.X, key); class != "" {
					ff.Acquires = append(ff.Acquires, LockAcquire{
						Class:     class,
						Held:      heldSnapshot(),
						Pos:       lc.pkg.Fset.Position(call.Pos()),
						Ignored:   lc.ignored(call.Pos(), "lock-order"),
						Transient: name == "Use",
					})
					if name != "Use" {
						held[class] = true
					}
				}
				return true
			case releaseNames[name]:
				if class := lc.lockClass(sel.X, key); class != "" {
					delete(held, class)
				}
				return true
			case remoteCallNames[name] && lc.isEndpoint(sel):
				ff.Remotes = append(ff.Remotes, LockRemote{
					Kinds:   lc.callKinds(call, fd),
					Held:    heldSnapshot(),
					Pos:     lc.pkg.Fset.Position(call.Pos()),
					Ignored: lc.ignored(call.Pos(), "lock-remote"),
				})
				return true
			}
		}
		if callee := lc.calleeKey(call); callee != "" && callee != key {
			h := heldSnapshot()
			if dk := callee + "|" + strings.Join(h, ","); !seenCall[dk] {
				seenCall[dk] = true
				ff.Calls = append(ff.Calls, LockCallEdge{
					Callee: callee,
					Held:   h,
					Pos:    lc.pkg.Fset.Position(call.Pos()),
				})
			}
		}
		return true
	})
	if len(ff.Acquires) == 0 && len(ff.Calls) == 0 && len(ff.Remotes) == 0 {
		return nil
	}
	return ff
}

// lockClass names the lock a receiver expression denotes:
// "pkg.Type.field" for field selectors, "global:pkg.name" for
// package-level variables, "local:<funcKey>.<name>" for locals (an
// instance-insensitive approximation; locals do not alias across
// functions).
func (lc *lockCollector) lockClass(x ast.Expr, key string) string {
	switch e := unparen(x).(type) {
	case *ast.SelectorExpr:
		if s, ok := lc.pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			if n, ok := deref(s.Recv()).(*types.Named); ok && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name
			}
		}
		return "expr:" + lc.pkg.Path + ":" + types.ExprString(e)
	case *ast.Ident:
		if v, ok := lc.pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return "global:" + v.Pkg().Name() + "." + e.Name
		}
		return "local:" + key + "." + e.Name
	}
	return ""
}

// isEndpoint reports whether the selector's receiver is the remote-op
// Endpoint, by type when resolved and by the `ep` naming convention
// otherwise.
func (lc *lockCollector) isEndpoint(sel *ast.SelectorExpr) bool {
	if s, ok := lc.pkg.Info.Selections[sel]; ok {
		if n, ok := deref(s.Recv()).(*types.Named); ok {
			return n.Obj().Name() == "Endpoint"
		}
	}
	return strings.HasSuffix(types.ExprString(sel.X), "ep")
}

// callKinds extracts the message-kind constant names a remote call can
// carry: Kind: fields of composite literals in the arguments, and —
// when the field holds a local variable — every Kind constant assigned
// to that variable anywhere in the enclosing function.
func (lc *lockCollector) callKinds(call *ast.CallExpr, fd *ast.FuncDecl) []string {
	kinds := map[string]bool{}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Kind" {
				return true
			}
			if name := exprConstName(kv.Value); strings.HasPrefix(name, "Kind") {
				kinds[name] = true
			} else if id, ok := unparen(kv.Value).(*ast.Ident); ok {
				for _, k := range lc.kindAssignments(fd, id.Name) {
					kinds[k] = true
				}
			}
			return false
		})
	}
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// kindAssignments finds every Kind constant assigned to the named
// local within the function (the `kind := KindGetPage; if write { kind
// = KindGetPageWrite }` idiom).
func (lc *lockCollector) kindAssignments(fd *ast.FuncDecl, name string) []string {
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name != name {
				continue
			}
			if k := exprConstName(as.Rhs[i]); strings.HasPrefix(k, "Kind") {
				out = append(out, k)
			}
		}
		return true
	})
	return out
}

// calleeKey resolves a call to a module function key, or
// "iface:<Name>" for interface dispatch, or "" for anything the global
// phase cannot use.
func (lc *lockCollector) calleeKey(call *ast.CallExpr) string {
	if fn := staticCallee(lc.pkg.Info, call); fn != nil {
		return funcKey(fn)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := lc.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok && interfaceRecv(fn) {
				return "iface:" + fn.Name()
			}
		}
	}
	return ""
}

// ---- global phase --------------------------------------------------

// bareName extracts the unqualified function name from a funcKey.
func bareName(key string) string {
	if i := strings.LastIndex(key, ")."); i >= 0 {
		return key[i+2:]
	}
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// CheckLockOrder joins per-package lock facts, builds the global
// lock-class graph, and reports lock-order cycles and locks held
// across self-reacquiring remote calls. With no collected facts it
// stays silent (package-subset runs cannot prove absence).
func CheckLockOrder(all []*LockFacts) ([]Finding, LockGraph) {
	funcs := map[string]*FuncLockFacts{}
	handlers := map[string][]string{} // kind constant → handler keys
	byName := map[string][]string{}   // bare name → keys, for iface: dispatch
	for _, lf := range all {
		if lf == nil {
			continue
		}
		for _, ff := range lf.Funcs {
			funcs[ff.Key] = ff
			byName[bareName(ff.Key)] = append(byName[bareName(ff.Key)], ff.Key)
		}
		for _, r := range lf.Regs {
			if r.Handler != "" {
				handlers[r.Kind] = append(handlers[r.Kind], r.Handler)
			}
		}
	}
	if len(funcs) == 0 {
		return nil, LockGraph{}
	}

	resolve := func(callee string) []string {
		if k, ok := strings.CutPrefix(callee, "iface:"); ok {
			return byName[k]
		}
		if _, ok := funcs[callee]; ok {
			return []string{callee}
		}
		return nil
	}

	// Transitive acquire sets: every class a function can take,
	// directly, through module calls, or through the handlers its
	// remote calls dispatch to. Ignored acquires still count — a
	// justified ordering is still an acquisition the remote side
	// performs.
	trans := map[string]map[string]bool{}
	for key, ff := range funcs {
		set := map[string]bool{}
		for _, a := range ff.Acquires {
			set[a.Class] = true
		}
		trans[key] = set
	}
	for changed := true; changed; {
		changed = false
		for key, ff := range funcs {
			set := trans[key]
			add := func(from string) {
				for cls := range trans[from] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
			for _, ce := range ff.Calls {
				for _, callee := range resolve(ce.Callee) {
					add(callee)
				}
			}
			for _, r := range ff.Remotes {
				for _, kind := range r.Kinds {
					for _, h := range handlers[kind] {
						if _, ok := funcs[h]; ok {
							add(h)
						}
					}
				}
			}
		}
	}

	// Edge generation over the lock-class graph.
	type edge struct{ from, to string }
	edges := map[edge]token.Position{}
	classes := map[string]bool{}
	addEdge := func(from, to string, pos token.Position) {
		if from == to {
			return // same-class reacquisition is lock-remote's, not a cycle
		}
		classes[from], classes[to] = true, true
		if _, ok := edges[edge{from, to}]; !ok {
			edges[edge{from, to}] = pos
		}
	}
	var findings []Finding
	for _, ff := range funcs {
		for _, a := range ff.Acquires {
			classes[a.Class] = true
			if a.Ignored {
				continue
			}
			for _, h := range a.Held {
				addEdge(h, a.Class, a.Pos)
			}
		}
		for _, ce := range ff.Calls {
			if len(ce.Held) == 0 {
				continue
			}
			for _, callee := range resolve(ce.Callee) {
				for cls := range trans[callee] {
					for _, h := range ce.Held {
						addEdge(h, cls, ce.Pos)
					}
				}
			}
		}
		for _, r := range ff.Remotes {
			if r.Ignored || len(r.Held) == 0 {
				continue
			}
			remoteClasses := map[string]bool{}
			for _, kind := range r.Kinds {
				for _, h := range handlers[kind] {
					for cls := range trans[h] {
						remoteClasses[cls] = true
					}
				}
			}
			for _, h := range r.Held {
				if remoteClasses[h] {
					findings = append(findings, Finding{
						Pos:  r.Pos,
						Rule: "lock-remote",
						Msg: fmt.Sprintf("%s is held across a blocking remote call whose handler can reacquire the same lock class; if the handling host is blocked on its own instance the rendezvous deadlocks — release before the call, or annotate the by-design transaction with vet:ignore lock-remote",
							h),
					})
				}
				for cls := range remoteClasses {
					addEdge(h, cls, r.Pos)
				}
			}
		}
	}

	// Cycle detection: SCCs of the class graph, its classes indexed in
	// name order; every edge inside a multi-node SCC participates in
	// some cycle.
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, c := range names {
		index[c] = i
	}
	succs := make([][]int, len(names))
	for e := range edges {
		succs[index[e.from]] = append(succs[index[e.from]], index[e.to])
	}
	comp := make([]int, len(names)) // 1 + the component of a class in a cycle, else 0
	for i, scc := range sccOrder(succs) {
		if len(scc) > 1 {
			for _, v := range scc {
				comp[v] = i + 1
			}
		}
	}
	for e, pos := range edges {
		if c := comp[index[e.from]]; c != 0 && c == comp[index[e.to]] {
			findings = append(findings, Finding{
				Pos:  pos,
				Rule: "lock-order",
				Msg: fmt.Sprintf("acquiring %s while holding %s participates in a lock-order cycle (some other path takes these classes in the opposite order); impose one global order or annotate the proven-safe site with vet:ignore lock-order",
					e.to, e.from),
			})
		}
	}
	SortFindings(findings)
	return findings, LockGraph{Classes: len(classes), Edges: len(edges)}
}
