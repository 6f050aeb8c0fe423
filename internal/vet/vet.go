// Package vet is the project's own static analyzer; its test
// TestTreeClean runs every rule over the module's packages, so
// `go test ./...` fails on any finding. It enforces invariants the
// general Go toolchain cannot know about:
//
//   - lock-pairing: in the DSM, synchronization and thread packages
//     every semaphore hold is written one way — `x.P(...)` as a
//     top-level statement of a function or function-literal body,
//     followed (after any other defers) by `defer x.V()` — so it is
//     released on every path out of the body, panics and process exits
//     included; the simulation deadlocks silently otherwise. The rule
//     is lexical and accepts only that shape, not every balanced one:
//     shapes an explicit V balances per branch are reported, because
//     accepting them takes a dataflow proof over every path. With
//     every hold lasting from its P to the end of its body, a
//     process's holds nest, which is what lets sim check a lock order
//     at run time as a stack of ranks (sim.Semaphore.Ranked). See
//     lockpair.go.
//   - time: wall-clock time (`time.Now` and friends) must not leak
//     into the simulation packages; all time is the kernel's virtual
//     clock, and one stray `time.Now` destroys run-to-run determinism.
//   - rand: the global `math/rand` state is forbidden in simulation
//     packages; only explicitly seeded generators
//     (`rand.New(rand.NewSource(seed))`) are deterministic.
//   - map-order: ranging over a map in simulation packages is flagged —
//     Go randomizes iteration order, so any map-ordered protocol or
//     event action varies run to run. No exception is inferred: walk
//     sim.SortedKeys(m) instead, or annotate the one loop that cannot
//     (unordered key type) with a reasoned `vet:ignore map-order`.
//   - chan-send: a bare channel send in simulation packages hands
//     control to whatever goroutine the Go runtime picks, bypassing
//     the kernel's deterministic scheduler (and with it the model
//     checker's Chooser). The kernel itself switches processes as
//     coroutines and sends on no channel.
//   - select-default: `select` with a `default` clause in simulation
//     packages is non-blocking channel polling; whether a communication
//     is ready when the poll runs depends on real-time goroutine
//     interleaving, not virtual time, so the branch taken varies run
//     to run.
//   - page-buffer: DSM page byte buffers (`localPage.data`) may be
//     indexed or sliced only inside the access layer; protocol code
//     elsewhere reaching into raw page bytes bypasses the typed,
//     conversion-aware gateway.
//   - hot-alloc: the steady-state page-transfer path is allocation-free
//     (pooled buffers, append-style encoding); a `make([]byte, ...)` or
//     a copying `.Encode()` call in the transfer packages reintroduces
//     per-transfer garbage. Deliberate allocation sites — the pool's
//     own refill, buffers that escape into caches — carry a
//     `vet:ignore hot-alloc` comment.
//   - enum-switch: a switch over one of the project's enum types
//     (Access, Policy, message kinds, ...) must either cover every
//     declared constant or have a default clause; silently falling
//     through on a newly added enum value is how protocol dispatchers
//     rot.
//   - policy-branch: the coherence policy is dispatched exactly once,
//     where newEngine selects a replication engine; a `cfg.Policy`
//     comparison or switch anywhere else in the DSM package is a
//     second dispatch point that the engine refactor exists to
//     eliminate, and it silently misses newly added policies.
//
// Findings on a line carrying a `vet:ignore <rule>` comment are
// suppressed.
//
// Two disciplines the code relies on are checked at run time rather
// than here: the lock order (sim.Semaphore.Ranked) and pooled-buffer
// ownership (bufpool.Put poisons what it retires and panics on a
// buffer put twice).
//
// The analyzer is built only on the standard library (go/ast,
// go/parser, go/types): it parses each package from source and
// type-checks it with whatever importer the caller provides, degrading
// gracefully — rules that need type information simply see less when
// an import cannot be resolved.
package vet

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule names the rule that fired (lock-pairing, time, rand,
	// map-order, chan-send, select-default, page-buffer, enum-switch).
	Rule string
	// Msg explains the violation.
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// SortFindings orders findings by file, line, column, then message.
func SortFindings(fs []Finding) {
	slices.SortFunc(fs, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Msg, b.Msg))
	})
}

// Config scopes the rules to package import paths.
type Config struct {
	// PVPackages lists packages subject to the lock-pairing rule.
	PVPackages []string
	// DeterminismPackages lists packages subject to the time, rand,
	// map-order, chan-send and select-default rules.
	DeterminismPackages []string
	// PageBufferPackages lists packages subject to the page-buffer
	// rule.
	PageBufferPackages []string
	// PageBufferAllow lists file basenames (the access layer) where
	// direct page-buffer indexing is legal.
	PageBufferAllow []string
	// EnumModulePrefix restricts the enum-switch rule to enum types
	// declared in packages with this import-path prefix. Empty means
	// every named type qualifies.
	EnumModulePrefix string
	// HotAllocPackages lists packages subject to the hot-alloc rule.
	HotAllocPackages []string
	// ErrDropPackages lists packages subject to the err-drop rule.
	ErrDropPackages []string
	// PolicyBranchPackages lists packages subject to the policy-branch
	// rule.
	PolicyBranchPackages []string
	// PolicyBranchAllow lists file basenames (the engine dispatch)
	// where comparing or switching on the coherence policy is legal.
	PolicyBranchAllow []string
	// MapOrderPackages lists packages subject to only the map-order
	// rule (beyond DeterminismPackages, which get the full determinism
	// set). Protocol-adjacent packages live here: their map walks feed
	// message traffic and reported tables, but they host deliberate
	// channel use the other determinism rules would drown in.
	MapOrderPackages []string
}

// DefaultConfig returns the project's rule scoping for the module with
// the given path.
func DefaultConfig(module string) *Config {
	j := func(p string) string { return path.Join(module, p) }
	return &Config{
		PVPackages:           []string{j("internal/dsm"), j("internal/dsync"), j("internal/threads")},
		DeterminismPackages:  []string{j("internal/sim"), j("internal/dsm"), j("internal/netsim")},
		PageBufferPackages:   []string{j("internal/dsm")},
		PageBufferAllow:      []string{"access.go", "protocol.go", "central.go", "update.go", "recovery.go", "rc.go"},
		EnumModulePrefix:     module,
		HotAllocPackages:     []string{j("internal/dsm"), j("internal/netsim"), j("internal/remoteop"), j("internal/bufpool")},
		ErrDropPackages:      []string{j("internal/dsm"), j("internal/remoteop")},
		PolicyBranchPackages: []string{j("internal/dsm")},
		PolicyBranchAllow:    []string{"engine.go"},
		MapOrderPackages: []string{
			j("internal/dsync"), j("internal/remoteop"), j("internal/mc"),
			j("internal/chaos"), j("internal/cluster"), j("internal/exp"),
		},
	}
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Fset positions every file.
	Fset *token.FileSet
	// Path is the package import path.
	Path string
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Info holds whatever type information checking produced.
	Info *types.Info
	// Types is the checked package (possibly incomplete).
	Types *types.Package
}

// lenientImporter resolves imports through inner when possible and
// substitutes an empty placeholder package otherwise, so type checking
// always proceeds and rules degrade instead of aborting.
type lenientImporter struct {
	inner types.Importer
	cache map[string]*types.Package
}

func (li *lenientImporter) Import(p string) (*types.Package, error) {
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := li.cache[p]; ok {
		return pkg, nil
	}
	if li.inner != nil {
		if pkg, err := li.inner.Import(p); err == nil && pkg != nil {
			li.cache[p] = pkg
			return pkg, nil
		}
	}
	name := path.Base(p)
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		name = name[i+1:]
	}
	pkg := types.NewPackage(p, name)
	pkg.MarkComplete()
	li.cache[p] = pkg
	return pkg, nil
}

// NewPackage type-checks parsed files into an analyzable Package.
// Type errors are tolerated: the checker records what it can resolve
// and the rules consult only that.
func NewPackage(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) *Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: &lenientImporter{inner: imp, cache: map[string]*types.Package{}},
		Error:    func(error) {}, // collect partial info, never abort
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	return &Package{Fset: fset, Path: importPath, Files: files, Info: info, Types: tpkg}
}

// Check runs every applicable rule over the package.
func Check(pkg *Package, cfg *Config) []Finding {
	c := &checker{pkg: pkg, cfg: cfg}
	for _, f := range pkg.Files {
		c.ignores = collectIgnores(pkg.Fset, f)
		if slices.Contains(cfg.PVPackages, pkg.Path) {
			c.checkLockPairing(f)
		}
		full := slices.Contains(cfg.DeterminismPackages, pkg.Path)
		if full || slices.Contains(cfg.MapOrderPackages, pkg.Path) {
			c.checkDeterminism(f, full)
		}
		if slices.Contains(cfg.PageBufferPackages, pkg.Path) {
			c.checkPageBuffer(f)
		}
		if slices.Contains(cfg.HotAllocPackages, pkg.Path) {
			c.checkHotAlloc(f)
		}
		if slices.Contains(cfg.ErrDropPackages, pkg.Path) {
			c.checkErrDrop(f)
		}
		if slices.Contains(cfg.PolicyBranchPackages, pkg.Path) {
			c.checkPolicyBranch(f)
		}
		c.checkEnumSwitch(f)
	}
	SortFindings(c.findings)
	return c.findings
}

type checker struct {
	pkg      *Package
	cfg      *Config
	ignores  map[int][]string
	findings []Finding
}

// collectIgnores maps line numbers to the vet:ignore directives found
// on them.
func collectIgnores(fset *token.FileSet, f *ast.File) map[int][]string {
	out := map[int][]string{}
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			txt := cm.Text
			i := strings.Index(txt, "vet:ignore")
			if i < 0 {
				continue
			}
			line := fset.Position(cm.Pos()).Line
			out[line] = append(out[line], txt[i:])
		}
	}
	return out
}

// report files a finding unless the line carries vet:ignore <rule>.
func (c *checker) report(pos token.Pos, rule, format string, args ...any) {
	p := c.pkg.Fset.Position(pos)
	for _, d := range c.ignores[p.Line] {
		if strings.HasPrefix(d, "vet:ignore "+rule) {
			return
		}
	}
	c.findings = append(c.findings, Finding{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// ---- determinism: time, rand, map-order ----------------------------

// forbiddenTime lists wall-clock accessors that break virtual-time
// determinism.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true,
	"NewTicker": true, "Sleep": true,
}

// allowedRand lists math/rand functions that construct explicitly
// seeded generators (the only deterministic way in).
var allowedRand = map[string]bool{"New": true, "NewSource": true}

// checkDeterminism runs the determinism rules; with full false only the
// map-order rule applies (MapOrderPackages scoping).
func (c *checker) checkDeterminism(f *ast.File, full bool) {
	// Resolve the local names of the time and math/rand imports.
	timeNames := map[string]bool{}
	randNames := map[string]bool{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch p {
		case "time":
			timeNames[name] = true
		case "math/rand", "math/rand/v2":
			randNames[name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if !full {
				return true
			}
			// Only calls matter: referencing types like rand.Rand or
			// constants like time.Millisecond is deterministic.
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			// Confirm the identifier denotes the package, not a local.
			if obj, resolved := c.pkg.Info.Uses[id]; resolved {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			if timeNames[id.Name] && forbiddenTime[sel.Sel.Name] {
				c.report(node.Pos(), "time",
					"wall-clock time.%s in a simulation package; use the kernel's virtual clock",
					sel.Sel.Name)
			}
			if randNames[id.Name] && !allowedRand[sel.Sel.Name] {
				c.report(node.Pos(), "rand",
					"global math/rand state (rand.%s) in a simulation package; use a seeded rand.New(rand.NewSource(...))",
					sel.Sel.Name)
			}
		case *ast.RangeStmt:
			tv, ok := c.pkg.Info.Types[node.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				c.report(node.Pos(), "map-order",
					"range over map %s: iteration order is randomized and leaks into simulation behaviour (range over sim.SortedKeys, or annotate a walk that cannot with a reasoned vet:ignore map-order)",
					types.ExprString(node.X))
			}
		case *ast.SendStmt:
			if !full {
				return true
			}
			c.report(node.Pos(), "chan-send",
				"bare channel send %s <- … in a simulation package: goroutine handoff order is the Go scheduler's, not the kernel's (route through kernel events, or annotate a kernel-controlled rendezvous with vet:ignore chan-send)",
				types.ExprString(node.Chan))
		case *ast.SelectStmt:
			if !full {
				return true
			}
			for _, clause := range node.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					c.report(node.Pos(), "select-default",
						"select with a default clause in a simulation package: non-blocking channel polling races the Go scheduler and varies run to run")
				}
			}
		}
		return true
	})
}

// ---- page-buffer ---------------------------------------------------

// checkPageBuffer flags indexing or slicing of page byte buffers
// (selector `.data`, the localPage field) outside the access layer.
func (c *checker) checkPageBuffer(f *ast.File) {
	base := path.Base(c.pkg.Fset.Position(f.Pos()).Filename)
	if slices.Contains(c.cfg.PageBufferAllow, base) {
		return
	}
	flag := func(x ast.Expr, pos token.Pos) {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "data" {
			return
		}
		// With type information, confirm the selector really is the
		// page-buffer field; without it, the name alone decides.
		if s, ok := c.pkg.Info.Selections[sel]; ok {
			named := deref(s.Recv())
			if n, ok := named.(*types.Named); ok && n.Obj().Name() != "localPage" {
				return
			}
		}
		c.report(pos, "page-buffer",
			"direct page-buffer access (%s) outside the access layer; go through the typed accessors",
			types.ExprString(x))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.IndexExpr:
			flag(node.X, node.Pos())
		case *ast.SliceExpr:
			flag(node.X, node.Pos())
		}
		return true
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// ---- hot-alloc -----------------------------------------------------

// checkHotAlloc flags per-transfer allocation in the packages whose
// steady state must be garbage-free: `make([]byte, ...)` (the pool's
// bufpool.Get is the sanctioned source of scratch buffers) and calls
// to a zero-argument `.Encode()` method (the copying encoder;
// AppendEncode into a pooled buffer is the transfer-path form).
// Deliberate allocation sites carry `vet:ignore hot-alloc`.
func (c *checker) checkHotAlloc(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 2 {
			if isByteSliceExpr(call.Args[0], c.pkg.Info) {
				c.report(call.Pos(), "hot-alloc",
					"make([]byte, ...) in a transfer-path package allocates per call; take scratch buffers from bufpool.Get (or annotate a deliberate allocation with vet:ignore hot-alloc)")
			}
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Encode" && len(call.Args) == 0 {
			// Skip package-qualified calls (pkg.Encode is not the
			// message method); a local whose method is named Encode is
			// exactly what the rule is after.
			if id, isIdent := sel.X.(*ast.Ident); isIdent {
				if obj, resolved := c.pkg.Info.Uses[id]; resolved {
					if _, isPkg := obj.(*types.PkgName); isPkg {
						return true
					}
				}
			}
			c.report(call.Pos(), "hot-alloc",
				"%s.Encode() allocates a fresh wire buffer per message; use AppendEncode into a pooled buffer (or annotate a deliberate copy with vet:ignore hot-alloc)",
				types.ExprString(sel.X))
		}
		return true
	})
}

// isByteSliceExpr reports whether the type expression denotes []byte,
// preferring resolved type information and falling back to syntax.
func isByteSliceExpr(x ast.Expr, info *types.Info) bool {
	if tv, ok := info.Types[x]; ok && tv.Type != nil {
		if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
			if b, ok := sl.Elem().Underlying().(*types.Basic); ok {
				return b.Kind() == types.Byte || b.Kind() == types.Uint8
			}
		}
		return false
	}
	arr, ok := x.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	elt, ok := arr.Elt.(*ast.Ident)
	return ok && (elt.Name == "byte" || elt.Name == "uint8")
}

// ---- err-drop ------------------------------------------------------

// checkErrDrop flags silently discarded errors in the protocol
// packages: a call statement whose error result is never bound, and
// `_ = call(...)` / `_, _ = call(...)` assignments that throw every
// result away while one of them is an error. A swallowed error in the
// transfer or remote-operation path turns a detectable fault (a dead
// peer, a timed-out request) into a silent hang or stale data —
// exactly the bug class the crash-stop work exists to surface.
// Deliberate fire-and-forget sites (a reply to a requester that may
// itself be dead) carry `vet:ignore err-drop` with a justification.
// The rule needs resolved type information for the callee; calls the
// checker could not type are skipped.
func (c *checker) checkErrDrop(f *ast.File) {
	flag := func(call *ast.CallExpr, how string) {
		if !c.callReturnsError(call) {
			return
		}
		c.report(call.Pos(), "err-drop",
			"%s %s discards its error result; propagate it or annotate the deliberate drop with vet:ignore err-drop",
			how, types.ExprString(call.Fun))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok {
				flag(call, "call statement")
			}
		case *ast.AssignStmt:
			if len(node.Rhs) != 1 {
				return true
			}
			call, ok := node.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, lhs := range node.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					return true // at least one result is bound
				}
			}
			flag(call, "blank assignment of")
		case *ast.GoStmt:
			return false // the called function's body is still inspected via its own statements
		}
		return true
	})
}

// callReturnsError reports whether the call's results include the
// built-in error type, per resolved type information.
func (c *checker) callReturnsError(call *ast.CallExpr) bool {
	tv, ok := c.pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(tv.Type, errType)
}

// ---- enum-switch ---------------------------------------------------

// checkEnumSwitch requires every switch over a module-declared integer
// enum (a named type with at least two package-level constants) to
// either cover all declared constants or carry a default clause.
func (c *checker) checkEnumSwitch(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := c.pkg.Info.Types[sw.Tag]
		if !ok || tv.Type == nil {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return true
		}
		basic, ok := named.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			return true
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return true
		}
		if c.cfg.EnumModulePrefix != "" && !strings.HasPrefix(obj.Pkg().Path(), c.cfg.EnumModulePrefix) {
			return true
		}
		// Enumerate the type's package-level constants.
		type enumConst struct {
			name string
			val  constant.Value
		}
		var consts []enumConst
		scope := obj.Pkg().Scope()
		for _, name := range scope.Names() {
			cn, ok := scope.Lookup(name).(*types.Const)
			if !ok || !types.Identical(cn.Type(), tv.Type) {
				continue
			}
			consts = append(consts, enumConst{name: name, val: cn.Val()})
		}
		if len(consts) < 2 {
			return true
		}
		covered := map[int]bool{}
		hasDefault := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, e := range cc.List {
				etv, ok := c.pkg.Info.Types[e]
				if !ok || etv.Value == nil {
					continue
				}
				for i, ec := range consts {
					if constant.Compare(etv.Value, token.EQL, ec.val) {
						covered[i] = true
					}
				}
			}
		}
		if hasDefault {
			return true
		}
		var missing []string
		for i, ec := range consts {
			if !covered[i] {
				missing = append(missing, ec.name)
			}
		}
		if len(missing) > 0 {
			c.report(sw.Pos(), "enum-switch",
				"switch over %s.%s misses %s and has no default clause",
				obj.Pkg().Name(), obj.Name(), strings.Join(missing, ", "))
		}
		return true
	})
}

// ---- policy-branch -------------------------------------------------

// checkPolicyBranch flags comparisons against and switches over the
// coherence policy (`cfg.Policy == ...`, `switch m.cfg.Policy`)
// outside the engine-dispatch files. The replication engines exist so
// that per-policy behaviour is selected once, in newEngine; a policy
// branch anywhere else reintroduces scattered dispatch that a new
// policy would have to hunt down. With type information the rule
// confirms the selector really denotes a value of a named Policy
// type; without it, the field name alone decides.
func (c *checker) checkPolicyBranch(f *ast.File) {
	base := path.Base(c.pkg.Fset.Position(f.Pos()).Filename)
	if slices.Contains(c.cfg.PolicyBranchAllow, base) {
		return
	}
	isPolicy := func(x ast.Expr) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Policy" {
			return false
		}
		if tv, ok := c.pkg.Info.Types[sel]; ok && tv.Type != nil {
			named, isNamed := tv.Type.(*types.Named)
			return isNamed && named.Obj().Name() == "Policy"
		}
		return true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.BinaryExpr:
			if node.Op != token.EQL && node.Op != token.NEQ {
				return true
			}
			if isPolicy(node.X) || isPolicy(node.Y) {
				c.report(node.Pos(), "policy-branch",
					"policy comparison (%s) outside the engine dispatch; per-policy behaviour belongs in a replication engine selected by newEngine",
					types.ExprString(node))
			}
		case *ast.SwitchStmt:
			if node.Tag != nil && isPolicy(node.Tag) {
				c.report(node.Pos(), "policy-branch",
					"switch over %s outside the engine dispatch; per-policy behaviour belongs in a replication engine selected by newEngine",
					types.ExprString(node.Tag))
			}
		}
		return true
	})
}
