package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// analyze parses named fixture sources as one package and runs the
// rules with the fixture path standing in for every scoped package.
func analyze(t *testing.T, pkgPath string, sources map[string]string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range sources {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		files = append(files, f)
	}
	pkg := NewPackage(fset, pkgPath, files, nil)
	cfg := &Config{
		PVPackages:           []string{pkgPath},
		DeterminismPackages:  []string{pkgPath},
		PageBufferPackages:   []string{pkgPath},
		PageBufferAllow:      []string{"access.go"},
		HotAllocPackages:     []string{pkgPath},
		ErrDropPackages:      []string{pkgPath},
		PolicyBranchPackages: []string{pkgPath},
		PolicyBranchAllow:    []string{"engine.go"},
	}
	return Check(pkg, cfg)
}

func rules(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func wantRule(t *testing.T, fs []Finding, rule string, substr string) {
	t.Helper()
	for _, f := range fs {
		if f.Rule == rule && strings.Contains(f.Msg, substr) {
			return
		}
	}
	t.Fatalf("no %s finding containing %q; got %v", rule, substr, fs)
}

func wantClean(t *testing.T, fs []Finding) {
	t.Helper()
	if len(fs) != 0 {
		t.Fatalf("expected no findings, got %v", fs)
	}
}

func TestUnpairedPFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

type sema struct{}

func (s *sema) P(x int) {}
func (s *sema) V()      {}

type mod struct{ lock *sema }

func (m *mod) leaky(x int) {
	m.lock.P(x)
	// no V: the simulation deadlocks on the next acquirer
}

func (m *mod) balanced(x int) {
	m.lock.P(x)
	defer m.lock.V()
}

func (m *mod) twoLocks(a, b *sema, x int) {
	a.P(x)
	b.P(x)
	defer a.V()
	b.V()
}
`})
	// twoLocks balances both semaphores only through an explicit V: a
	// is not followed by its deferred release, and b's is a's.
	wantRule(t, fs, "lock-pairing", "m.lock.P acquired in leaky")
	wantRule(t, fs, "lock-pairing", "a.P acquired in twoLocks is not followed by defer a.V()")
	wantRule(t, fs, "lock-pairing", "b.P acquired in twoLocks is followed by defer a.V()")
	if len(fs) != 3 {
		t.Fatalf("want exactly the leak and twoLocks' two holds, got %v", fs)
	}
}

func TestPVImplementationsExempt(t *testing.T) {
	wantClean(t, analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

type inner struct{ n int }
type Service struct{ i inner }

// P is the semaphore implementation itself: it legitimately "acquires"
// without releasing.
func (s *Service) P(x int) { s.i.n-- }
func (s *Service) V()      { s.i.n++ }
`}))
}

func TestWallClockFlagged(t *testing.T) {
	fs := analyze(t, "fixture/sim", map[string]string{"a.go": `
package sim

import "time"

func bad() int64 { return time.Now().UnixNano() }

func fine() time.Duration { return 3 * time.Millisecond }
`})
	wantRule(t, fs, "time", "time.Now")
	if len(fs) != 1 {
		t.Fatalf("constants and types of package time must stay legal: %v", fs)
	}
}

func TestGlobalRandFlaggedSeededAllowed(t *testing.T) {
	fs := analyze(t, "fixture/sim", map[string]string{"a.go": `
package sim

import "math/rand"

func bad() int { return rand.Intn(6) }

func fine(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`})
	wantRule(t, fs, "rand", "rand.Intn")
	if len(fs) != 1 {
		t.Fatalf("seeded construction must stay legal: %v", fs)
	}
}

func TestMapRangeFlaggedUnlessAnnotated(t *testing.T) {
	fs := analyze(t, "fixture/sim", map[string]string{"a.go": `
package sim

func bad(m map[int]string) {
	for k := range m {
		_ = k
	}
}

func annotated(m map[int]string) {
	total := 0
	for k := range m { // vet:ignore map-order — summation commutes
		total += k
	}
	_ = total
}

func slices(s []int) {
	for i := range s {
		_ = i
	}
}
`})
	wantRule(t, fs, "map-order", "range over map m")
	if len(fs) != 1 {
		t.Fatalf("annotation or slice range wrongly flagged: %v", fs)
	}
}

func TestBareChannelSendFlaggedUnlessAnnotated(t *testing.T) {
	fs := analyze(t, "fixture/sim", map[string]string{"a.go": `
package sim

type msg struct{}

func bad(ch chan msg) {
	ch <- msg{} // scheduler-ordered handoff
}

func rendezvous(yield chan msg) {
	yield <- msg{} // vet:ignore chan-send — kernel⇄process rendezvous
}

func receivesAreFine(ch chan msg) msg {
	return <-ch
}
`})
	wantRule(t, fs, "chan-send", "ch <-")
	if len(fs) != 1 {
		t.Fatalf("annotated send or receive wrongly flagged: %v", fs)
	}
}

func TestSelectDefaultFlagged(t *testing.T) {
	fs := analyze(t, "fixture/netsim", map[string]string{"a.go": `
package netsim

func bad(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default: // non-blocking poll: result depends on real-time interleaving
		return -1
	}
}

func blockingSelectFine(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`})
	wantRule(t, fs, "select-default", "default clause")
	if len(fs) != 1 {
		t.Fatalf("blocking select wrongly flagged: %v", fs)
	}
}

func TestPageBufferIndexingFlaggedOutsideAccessLayer(t *testing.T) {
	fixture := map[string]string{
		"state.go": `
package dsm

type localPage struct {
	data   []byte
	access int
}
`,
		"proto.go": `
package dsm

func smuggle(lp *localPage) byte {
	lp.data[3] = 1     // direct index outside the access layer
	_ = lp.data[4:8]   // and a direct slice
	return lp.data[0]
}

func legal(lp *localPage) int {
	return len(lp.data) // len is not an access
}
`,
		"access.go": `
package dsm

func gateway(lp *localPage, i int) byte { return lp.data[i] }
`,
	}
	fs := analyze(t, "fixture/dsm", fixture)
	wantRule(t, fs, "page-buffer", "lp.data")
	if len(fs) != 3 {
		t.Fatalf("want the 3 smuggled accesses only, got %v (%v)", rules(fs), fs)
	}
}

func TestNonExhaustiveEnumSwitchFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

type Access int

const (
	NoAccess Access = iota
	ReadAccess
	WriteAccess
)

func bad(a Access) string {
	switch a {
	case NoAccess:
		return "none"
	case ReadAccess:
		return "read"
	}
	return "?"
}

func withDefault(a Access) string {
	switch a {
	case NoAccess:
		return "none"
	default:
		return "other"
	}
}

func exhaustive(a Access) string {
	switch a {
	case NoAccess, ReadAccess:
		return "r"
	case WriteAccess:
		return "w"
	}
	return "?"
}
`})
	wantRule(t, fs, "enum-switch", "WriteAccess")
	if len(fs) != 1 {
		t.Fatalf("default or exhaustive switches wrongly flagged: %v", fs)
	}
}

func TestFindingsSortedAndFormatted(t *testing.T) {
	fs := analyze(t, "fixture/sim", map[string]string{"a.go": `
package sim

import "time"

func b() { _ = time.Now(); _ = time.Now() }
`})
	if len(fs) != 2 {
		t.Fatalf("want 2, got %v", fs)
	}
	if fs[0].Pos.Column >= fs[1].Pos.Column {
		t.Fatalf("findings not sorted: %v", fs)
	}
	if !strings.Contains(fs[0].String(), "a.go") || !strings.Contains(fs[0].String(), "[time]") {
		t.Fatalf("finding format: %q", fs[0].String())
	}
}

func TestHotAllocFlagged(t *testing.T) {
	fs := analyze(t, "fixture/remoteop", map[string]string{"a.go": `
package remoteop

type msg struct{}

func (m *msg) Encode() ([]byte, error)             { return nil, nil }
func (m *msg) AppendEncode(d []byte) ([]byte, error) { return d, nil }

func send(m *msg) {
	wire := make([]byte, 8192)
	enc, _ := m.Encode()
	_, _ = wire, enc
}

func pooled(m *msg) {
	scratch := make([]byte, 64) // vet:ignore hot-alloc — fixture's sanctioned site
	enc, _ := m.AppendEncode(scratch[:0])
	_ = enc
}

func notBytes() {
	ints := make([]int, 8)   // other element types are fine
	twoD := make([][]byte, 4) // a slice of slices is bookkeeping, not a buffer
	_, _ = ints, twoD
}
`})
	wantRule(t, fs, "hot-alloc", "make([]byte, ...)")
	wantRule(t, fs, "hot-alloc", "m.Encode()")
	if len(fs) != 2 {
		t.Fatalf("want exactly the unannotated make and Encode, got %v", fs)
	}
}

func TestHotAllocScopedToConfiguredPackages(t *testing.T) {
	src := map[string]string{"a.go": `
package other

func alloc() []byte { return make([]byte, 1024) }
`}
	// The shared analyze helper scopes every rule to the fixture path,
	// so build the config by hand with hot-alloc pointed elsewhere.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src["a.go"], parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := NewPackage(fset, "fixture/other", []*ast.File{f}, nil)
	fs := Check(pkg, &Config{HotAllocPackages: []string{"fixture/remoteop"}})
	wantClean(t, fs)
}

func TestHotAllocSkipsPackageQualifiedEncode(t *testing.T) {
	fs := analyze(t, "fixture/netsim", map[string]string{"a.go": `
package netsim

import "encoding/json"

type codec struct{}

func (codec) Encode() {}

func ok() {
	var enc *json.Encoder
	_ = enc
}
`})
	wantClean(t, fs)
}

func TestErrDropFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

import "errors"

type ep struct{}

func (e *ep) Call() (int, error)  { return 0, errors.New("x") }
func (e *ep) Notify() error       { return nil }
func (e *ep) Fire()               {}

func drops(e *ep) {
	e.Notify()           // statement drop: error vanishes
	_ = e.Notify()       // blank assignment drop
	_, _ = e.Call()      // every result blanked, one is an error
	e.Fire()             // no error result: fine
	v, _ := e.Call()     // error blanked but a result is bound: out of scope
	_ = v
}
`})
	if got := len(fs); got != 3 {
		t.Fatalf("want 3 err-drop findings, got %d: %v", got, fs)
	}
	wantRule(t, fs, "err-drop", "call statement e.Notify")
	wantRule(t, fs, "err-drop", "blank assignment of e.Notify")
	wantRule(t, fs, "err-drop", "blank assignment of e.Call")
}

func TestErrDropAnnotatedSitesPass(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

import "errors"

type ep struct{}

func (e *ep) Notify() error { return nil }

func fireAndForget(e *ep) {
	_ = e.Notify() // vet:ignore err-drop — the requester times out and re-faults
	var err = errors.New("handled")
	_ = err
}
`})
	wantClean(t, fs)
}

func TestPolicyBranchFlaggedOutsideEngineDispatch(t *testing.T) {
	fixture := map[string]string{
		"state.go": `
package dsm

type Policy int

const (
	PolicyMRSW Policy = iota
	PolicyCentral
)

type Config struct{ Policy Policy }

type mod struct{ cfg Config }
`,
		"proto.go": `
package dsm

func scattered(m *mod) int {
	if m.cfg.Policy == PolicyCentral { // second dispatch point
		return 1
	}
	if m.cfg.Policy != PolicyMRSW { // and its negation
		return 2
	}
	switch m.cfg.Policy { // and a switch
	case PolicyMRSW:
		return 3
	default:
		return 4
	}
}

func legal(m *mod) Policy {
	p := m.cfg.Policy // reading the field is fine; branching on it is not
	return p
}
`,
		"engine.go": `
package dsm

func newEngine(m *mod) int {
	switch m.cfg.Policy { // the one sanctioned dispatch point
	case PolicyCentral:
		return 1
	default:
		return 0
	}
}
`,
	}
	fs := analyze(t, "fixture/dsm", fixture)
	wantRule(t, fs, "policy-branch", "m.cfg.Policy == PolicyCentral")
	wantRule(t, fs, "policy-branch", "m.cfg.Policy != PolicyMRSW")
	wantRule(t, fs, "policy-branch", "switch over m.cfg.Policy")
	if len(fs) != 3 {
		t.Fatalf("want the 3 scattered branches only, got %v (%v)", rules(fs), fs)
	}
}

func TestPolicyBranchIgnoresOtherPolicyFields(t *testing.T) {
	wantClean(t, analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

type retryPolicy struct{ Policy string }

func unrelated(r retryPolicy) bool {
	return r.Policy == "exponential" // a string field that merely shares the name
}
`}))
}

func TestPolicyBranchAnnotatedSitePasses(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

type Policy int

const (
	PolicyMRSW Policy = iota
	PolicyCentral
)

type Config struct{ Policy Policy }

func describe(c Config) string {
	if c.Policy == PolicyCentral { // vet:ignore policy-branch — diagnostics only
		return "central"
	}
	return "mrsw"
}
`})
	wantClean(t, fs)
}

func TestErrDropScopedToConfiguredPackages(t *testing.T) {
	src := map[string]string{"a.go": `
package other

import "errors"

func oops() error { return errors.New("x") }

func f() {
	oops()
}
`}
	fset := token.NewFileSet()
	var files []*ast.File
	for name, s := range src {
		f, err := parser.ParseFile(fset, name, s, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg := NewPackage(fset, "fixture/other", files, nil)
	fs := Check(pkg, &Config{ErrDropPackages: []string{"fixture/dsm"}})
	wantClean(t, fs)
}
