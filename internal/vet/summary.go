package vet

// Bottom-up per-function summaries: each function's externally visible
// buffer effects, inferred once and consulted at every call site. The
// summary lattice is a few monotone bits per function — effects are
// only ever added — so the recursive-SCC fixpoint below terminates.
//
//   - ParamReleases[i]: the function returns param i's pooled buffer to
//     the pool (bufpool.Put, directly or through callees) on some path.
//     Callers model the argument as released: a later Put is a
//     double-release, and the caller is no longer leak-responsible.
//   - ParamStores[i]: param i escapes into longer-lived storage (a
//     field, a global, SetWire, a closure) on some path. Callers model
//     the argument as transferred — and passing *borrowed* wire data to
//     such a callee is a finding, exactly like storing it locally.
//   - ResultOwned[i]: result i is an owned pooled buffer on some return
//     path. Callers acquire it: it must be released or transferred on
//     every path, with no annotation on the callee.
//
// Summaries are computed per package over the callGraph's SCCs in
// bottom-up order; cmd/mermaid-vet walks packages in import-topological
// order, so by the time a package is summarized every same-module
// callee below it already has an entry in the shared SummaryTable.
// Unknown callees (dynamic dispatch, stdlib, packages outside the run)
// have no entry and are treated conservatively: arguments are loans,
// results unowned.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// FuncSummary is the inferred effect signature of one function.
type FuncSummary struct {
	// Key identifies the function (see funcKey).
	Key string
	// NumParams is the declared parameter count.
	NumParams int
	// ParamReleases marks params whose pooled buffer the function may
	// return to the pool.
	ParamReleases []bool
	// ParamStores marks params that may escape into storage that
	// outlives the call.
	ParamStores []bool
	// ResultOwned marks results that may carry an owned pooled buffer
	// the caller must release or transfer.
	ResultOwned []bool
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	return s.Key == o.Key && s.NumParams == o.NumParams &&
		boolsEqual(s.ParamReleases, o.ParamReleases) &&
		boolsEqual(s.ParamStores, o.ParamStores) &&
		boolsEqual(s.ResultOwned, o.ResultOwned)
}

// interesting reports whether the summary changes caller behaviour at
// all; uninteresting summaries still occupy the table (their absence
// would read as "unknown callee").
func (s *FuncSummary) interesting() bool {
	for _, b := range s.ParamReleases {
		if b {
			return true
		}
	}
	for _, b := range s.ParamStores {
		if b {
			return true
		}
	}
	for _, b := range s.ResultOwned {
		if b {
			return true
		}
	}
	return false
}

// SummaryTable is the shared, concurrency-safe store of computed
// summaries — the cache every call site consults. Lookup/hit counters
// feed the -json cache statistics.
type SummaryTable struct {
	mu      sync.RWMutex
	m       map[string]*FuncSummary
	lookups int
	hits    int
}

// NewSummaryTable returns an empty table.
func NewSummaryTable() *SummaryTable {
	return &SummaryTable{m: map[string]*FuncSummary{}}
}

// Lookup returns the summary for key, counting the probe for the cache
// statistics.
func (t *SummaryTable) Lookup(key string) *FuncSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lookups++
	s := t.m[key]
	if s != nil {
		t.hits++
	}
	return s
}

// has reports whether key is present without counting a probe.
func (t *SummaryTable) has(key string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.m[key]
	return ok
}

func (t *SummaryTable) put(s *FuncSummary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[s.Key] = s
}

// Size returns the number of stored summaries.
func (t *SummaryTable) Size() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// CacheStats returns the lookup and hit counts accumulated so far.
func (t *SummaryTable) CacheStats() (lookups, hits int) {
	if t == nil {
		return 0, 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lookups, t.hits
}

// sccIterMax bounds the refinement passes over one recursive SCC.
// Effects are monotone, so convergence is fast; the cap is a backstop.
const sccIterMax = 4

// ComputeSummaries infers summaries for every function in the package
// and stores them in tbl, returning how many were (re)computed.
// Functions already present in tbl are skipped, which makes the call
// idempotent: the driver summarizes each package once in topological
// order, and a later CheckWithTable on the same package finds only
// cache hits.
func ComputeSummaries(pkg *Package, cfg *Config, tbl *SummaryTable) int {
	if pkg.Types == nil || tbl == nil {
		return 0
	}
	c := &checker{pkg: pkg, cfg: cfg, summaries: tbl}
	g := buildCallGraph(pkg)
	computed := 0
	for _, scc := range sccOrder(g.succs) {
		all := true
		for _, i := range scc {
			if !tbl.has(funcKey(g.objs[i])) {
				all = false
				break
			}
		}
		if all {
			continue
		}
		cur := map[string]*FuncSummary{}
		// Optimistic seed for recursive components: no effects.
		// Refinement only adds effects, so iterating to a fixed point is
		// sound and terminates.
		for _, i := range scc {
			fn := g.objs[i]
			cur[funcKey(fn)] = newSummary(fn)
		}
		iters := 1
		if len(scc) > 1 || g.selfRecursive(scc[0]) {
			iters = sccIterMax
		}
		for it := 0; it < iters; it++ {
			stable := true
			for _, i := range scc {
				s := c.summarizeFunc(g.decls[i], g.objs[i], cur)
				if !s.equal(cur[s.Key]) {
					stable = false
				}
				cur[s.Key] = s
			}
			if stable {
				break
			}
		}
		for _, s := range cur {
			tbl.put(s)
			computed++
		}
	}
	return computed
}

// newSummary allocates the bottom (no effects) summary for fn.
func newSummary(fn *types.Func) *FuncSummary {
	sig, _ := fn.Type().(*types.Signature)
	np, nr := 0, 0
	if sig != nil {
		np = sig.Params().Len()
		nr = sig.Results().Len()
	}
	return &FuncSummary{
		Key:           funcKey(fn),
		NumParams:     np,
		ParamReleases: make([]bool, np),
		ParamStores:   make([]bool, np),
		ResultOwned:   make([]bool, nr),
	}
}

// summarizeFunc runs the ownership dataflow over one function body in
// summary mode: []byte params are seeded as tracked owned objects, and
// at every exit the analysis harvests which params were released or
// stored and which results carry owned buffers. cur holds the
// in-flight summaries of the function's own SCC, consulted before the
// shared table so recursion sees the current iterate.
func (c *checker) summarizeFunc(fd *ast.FuncDecl, fn *types.Func, cur map[string]*FuncSummary) *FuncSummary {
	out := newSummary(fn)
	a := &bufOwn{
		c:     c,
		fd:    fd,
		sites: map[token.Pos]int{},
		rep:   map[string]bool{},
		mute:  true,
		cur:   cur,
		sum:   &sumBuilder{idParam: map[int]int{}, out: out},
	}
	a.run()
	return out
}
