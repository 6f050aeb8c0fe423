package vet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadTestdata parses every .go file of a fixture package under
// testdata into one package.
func loadTestdata(t *testing.T, dir, pkgPath string) *Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return NewPackage(fset, pkgPath, files, nil)
}

// analyzeTestdata runs the buf-own rule over a fixture package.
func analyzeTestdata(t *testing.T, dir, pkgPath string) []Finding {
	t.Helper()
	return Check(loadTestdata(t, dir, pkgPath), &Config{
		BufOwnPackages: []string{pkgPath},
		BufPoolPackage: "repro/internal/bufpool",
		ProtoPackage:   "repro/internal/proto",
	})
}

// TestBufOwnMutationsKilled is the mutation-kill harness: every
// injected lifetime bug in testdata/bufownbad must be reported on its
// marked line, and nothing else may be.
func TestBufOwnMutationsKilled(t *testing.T) {
	dir := filepath.Join("testdata", "bufownbad")
	want, bugs := wantRuleLines(t, dir)
	if len(want) != 8 || !slices.Equal(bugs, []int{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("fixture must mark each of its 8 injected bugs once, found %d markers for bugs %v", len(want), bugs)
	}
	checkMarkers(t, analyzeTestdata(t, dir, "fixture/bufownbad"), want)
}

// TestBufOwnCleanFixtureSilent pins the false-positive budget at zero
// over every sanctioned ownership shape.
func TestBufOwnCleanFixtureSilent(t *testing.T) {
	fs := analyzeTestdata(t, filepath.Join("testdata", "bufownclean"), "fixture/bufownclean")
	if len(fs) != 0 {
		t.Fatalf("clean fixture must be silent, got %v", fs)
	}
}

const bufOwnHeader = `package dsm

import (
	"repro/internal/bufpool"
	"repro/internal/proto"
)

type owner struct{ buf, data []byte }

type proc struct{}

func (p *proc) Exit() {}

var kept []byte
`

// checkBufOwnCase analyzes one inline case under bufOwnHeader and
// requires a buf-own finding on exactly the lines marked `// want`.
func checkBufOwnCase(t *testing.T, src string) []Finding {
	t.Helper()
	src = bufOwnHeader + src + "\n"
	want := map[int]bool{}
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "// want") {
			want[i+1] = true
		}
	}
	var fs []Finding
	got := map[int]bool{}
	for _, f := range analyze(t, "fixture/dsm", map[string]string{"a.go": src}) {
		if f.Rule != "buf-own" {
			continue
		}
		fs = append(fs, f)
		got[f.Pos.Line] = true
		if !want[f.Pos.Line] {
			t.Errorf("unexpected finding %v", f)
		}
	}
	for line := range want {
		if !got[line] {
			t.Errorf("line %d: no buf-own finding", line)
		}
	}
	return fs
}

// TestBufOwnShapeRule pins the ownership shapes the rule accepts and
// each shape it reports; want is a substring of the reported message.
func TestBufOwnShapeRule(t *testing.T) {
	cases := []struct{ name, want, src string }{
		{"body-owned", "", `
func f(err error) error {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	if err != nil {
		return err
	}
	return nil
}`},
		{"function-literal-in-loop", "", `
func f(xs []int) {
	for range xs {
		func() {
			buf := bufpool.Get(64)
			defer bufpool.Put(buf)
			buf[0] = 1
		}()
	}
}`},
		{"field-owned", "", `
func f(o *owner, drop bool) {
	o.buf = bufpool.Get(64)
	if drop {
		bufpool.Put(o.buf)
	}
}`},
		{"set-wire", "", `
func f(m *proto.Message, cond bool) {
	if cond {
		m.SetWire(bufpool.Get(64))
	}
}`},
		{"take-and-put", "", `
func f(m *proto.Message, cond bool) {
	if cond {
		bufpool.Put(m.TakeWire())
	}
}`},
		{"deferred-take", "", `
func f(m *proto.Message, use func([]byte)) {
	defer bufpool.Put(m.TakeWire())
	use(m.Data)
}`},
		{"loan-param", "", `
func f(b []byte) int { return len(b) }`},
		{"borrow-detached", "", `
func f(o *owner, w []byte) {
	m, _ := proto.DecodeBorrow(w)
	o.buf = m.TakeWire()
	o.data = m.Data
}`},
		{"no-deferred-put", "is not followed by defer bufpool.Put(buf)", `
func f() {
	buf := bufpool.Get(64) // want
	buf[0] = 1
	bufpool.Put(buf)
}`},
		{"defer-after-a-statement", "is not followed by defer bufpool.Put(buf)", `
func f() {
	buf := bufpool.Get(64) // want
	buf[0] = 1
	defer bufpool.Put(buf)
}`},
		{"inside-if", "neither owned by its body", `
func f(cond bool) {
	if cond {
		buf := bufpool.Get(64) // want
		defer bufpool.Put(buf)
	}
}`},
		{"inside-for", "neither owned by its body", `
func f(xs []int) {
	for range xs {
		buf := bufpool.Get(64) // want
		defer bufpool.Put(buf)
	}
}`},
		{"discarded", "neither owned by its body", `
func f() {
	bufpool.Get(64) // want
}`},
		{"stored-to-index", "neither owned by its body", `
func f(tbl [][]byte) {
	tbl[0] = bufpool.Get(64) // want
}`},
		{"explicit-put-of-local", "is not deferred", `
func f(m *proto.Message) {
	buf := m.TakeWire()
	bufpool.Put(buf) // want
}`},
		{"second-put-of-owned", "is not deferred", `
func f() {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	bufpool.Put(buf) // want
}`},
		{"put-of-param", "releases a parameter", `
func f(b []byte) {
	bufpool.Put(b) // want
}`},
		{"deferred-put-of-param", "releases a parameter", `
func f(b []byte) {
	defer bufpool.Put(b) // want
}`},
		{"get-as-value", "passed as a function value", `
func f(fill func(func(int) []byte)) {
	fill(bufpool.Get) // want
}`},
		{"returns-get", "returns a pooled buffer", `
func f(n int) []byte {
	return bufpool.Get(n) // want
}`},
		{"returns-owned-local", "returns a pooled buffer", `
func f(n int) []byte {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	return buf[:n] // want
}`},
		{"param-to-global", "stored to package-level kept", `
func f(b []byte) {
	kept = b // want
}`},
		{"borrowed-stored-to-field", "stored to o.data", `
func f(o *owner, w []byte) {
	m, _ := proto.DecodeBorrow(w)
	o.data = m.Data // want
}`},
		{"borrowed-stored-to-index", "stored to tbl[0]", `
func f(tbl [][]byte, w []byte) {
	var m proto.Message
	_ = proto.DecodeBorrowInto(&m, w)
	tbl[0] = m.Data[:4] // want
}`},
		{"borrowed-captured", "captured by a function literal", `
func f(spawn func(func()), w []byte) {
	m, _ := proto.DecodeBorrow(w)
	spawn(func() {
		kept = append(kept, m.Data...) // want
	})
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := checkBufOwnCase(t, tc.src)
			if tc.want != "" && !slices.ContainsFunc(fs, func(f Finding) bool { return strings.Contains(f.Msg, tc.want) }) {
				t.Errorf("no finding says %q: %v", tc.want, fs)
			}
		})
	}
}

// TestCFGShapesThroughBufOwn keeps the nine control-flow shapes the
// retired CFG engine was tested on, judged now by the lexical rule: a
// hold an explicit Put balances on some paths is reported at its Get,
// whether or not it leaks, and a Put of a parameter is reported.
func TestCFGShapesThroughBufOwn(t *testing.T) {
	cases := []struct{ name, src string }{
		{"early-return", `
func earlyReturn(err error) error {
	buf := bufpool.Get(64) // want
	if err != nil {
		return err
	}
	bufpool.Put(buf)
	return nil
}`},
		{"per-branch-release", `
func perBranch(cond bool) int {
	buf := bufpool.Get(64) // want
	if cond {
		bufpool.Put(buf)
		return 1
	}
	bufpool.Put(buf)
	return 0
}

func viaDefer(err error) error {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	if err != nil {
		return err
	}
	return nil
}`},
		{"switch-case", `
func switchLeak(mode int) int {
	buf := bufpool.Get(64) // want
	switch mode {
	case 0:
		bufpool.Put(buf)
		return 0
	case 1:
		return 1
	default:
		bufpool.Put(buf)
		return 2
	}
}`},
		{"balanced-loop", `
func loopBalanced(n int) {
	for i := 0; i < n; i++ {
		buf := bufpool.Get(64) // want
		bufpool.Put(buf)
	}
}

func loopWithContinue(xs []int) int {
	total := 0
	for _, x := range xs {
		buf := bufpool.Get(64) // want
		if x < 0 {
			bufpool.Put(buf)
			continue
		}
		total += x
		bufpool.Put(buf)
	}
	return total
}`},
		{"break-while-held", `
func breakHeld(xs []int) {
	for _, x := range xs {
		buf := bufpool.Get(64) // want
		if x == 0 {
			break
		}
		bufpool.Put(buf)
	}
}`},
		{"crash-paths", `
func panics(err error) {
	buf := bufpool.Get(64) // want
	if err != nil {
		panic("corrupt state")
	} else {
		bufpool.Put(buf)
	}
}

func exits(p *proc, dead bool) {
	buf := bufpool.Get(64) // want
	if dead {
		p.Exit()
	} else {
		bufpool.Put(buf)
	}
}`},
		{"closure-release", `
func callback(after func(func())) {
	buf := bufpool.Get(64) // want
	after(func() {
		bufpool.Put(buf) // want
	})
}`},
		{"release-without-acquire", `
func give(buf []byte) {
	bufpool.Put(buf) // want
}`},
		{"two-buffers", `
func two(err error) error {
	a := bufpool.Get(64) // want
	b := bufpool.Get(64) // want
	if err != nil {
		bufpool.Put(b)
		return err
	}
	bufpool.Put(a)
	bufpool.Put(b)
	return nil
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkBufOwnCase(t, tc.src) })
	}
}

// TestBufOwnFormerCleanShapesFlagged keeps the lifetimes the clean
// fixtures accepted while buf-own was a dataflow analysis with
// interprocedural summaries. They balance, but not in an ownership
// shape, so each is now reported where it leaves it.
func TestBufOwnFormerCleanShapesFlagged(t *testing.T) {
	cases := []struct{ name, src string }{
		{"balanced", `
func balanced() {
	buf := bufpool.Get(64) // want
	copy(buf, "hello")
	bufpool.Put(buf)
}`},
		{"branches", `
func branches(cond bool) {
	buf := bufpool.Get(64) // want
	if cond {
		bufpool.Put(buf)
		return
	}
	bufpool.Put(buf)
}`},
		{"transfer-through-local", `
func transfer(m *proto.Message) {
	buf := bufpool.Get(64) // want
	m.SetWire(buf)
}`},
		{"field-transfer-through-local", `
func fieldTransfer(o *owner, m *proto.Message) error {
	buf, err := m.AppendEncode(bufpool.Get(64)[:0]) // want
	if err != nil {
		bufpool.Put(buf)
		return err
	}
	o.buf = buf
	return nil
}`},
		{"loan-then-put", `
func loan(send func(*proto.Message) error) error {
	data := bufpool.Get(64) // want
	err := send(&proto.Message{Data: data})
	bufpool.Put(data)
	return err
}`},
		{"serve-loop", `
func serveLoop(frames [][]byte, deliver func(*proto.Message)) {
	m := &proto.Message{}
	for _, f := range frames {
		buf := bufpool.Get(len(f)) // want
		n := copy(buf, f)
		if n == 0 {
			bufpool.Put(buf)
			continue
		}
		m.SetWire(buf)
		deliver(m)
	}
}`},
		{"panic-path", `
func panicPath(err error) {
	buf := bufpool.Get(4) // want
	if err != nil {
		panic("fatal")
	}
	bufpool.Put(buf)
}`},
		{"produce-consume", `
func produce(n int) []byte {
	out := bufpool.Get(n) // want
	return out // want
}

func consume() {
	buf := produce(8)
	bufpool.Put(buf) // want
}`},
		{"try-produce-guarded", `
func tryProduce(n int) ([]byte, bool) {
	if n == 0 {
		return nil, false
	}
	return bufpool.Get(n), true // want
}

func guarded(n int) {
	buf, ok := tryProduce(n)
	if !ok {
		return
	}
	bufpool.Put(buf) // want
}

func guardedLoop(sizes []int, m *proto.Message) {
	for _, n := range sizes {
		buf, ok := tryProduce(n)
		if !ok {
			continue
		}
		m.SetWire(buf)
	}
}`},
		{"helper-release-recursive", `
func releaseRec(b []byte, depth int) {
	if depth == 0 {
		bufpool.Put(b) // want
		return
	}
	releaseRec(b, depth-1)
}

func recCaller() {
	buf := bufpool.Get(64) // want
	releaseRec(buf, 3)
}`},
		{"helper-release-method", `
type pool struct{}

func (pl *pool) done(b []byte) {
	bufpool.Put(b) // want
}

func methodRelease() {
	var pl pool
	buf := bufpool.Get(16) // want
	pl.done(buf)
}`},
		{"interface-then-put", `
type consumer interface {
	Consume(b []byte)
}

func viaInterface(c consumer) {
	buf := bufpool.Get(16) // want
	c.Consume(buf)
	bufpool.Put(buf)
}`},
		{"closure-release-returned", `
func closureRelease() func() {
	buf := bufpool.Get(16) // want
	return func() {
		bufpool.Put(buf) // want
	}
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkBufOwnCase(t, tc.src) })
	}
}

// checkMarkers requires every marked line to be reported with its
// marked rule, and no finding on an unmarked line or of another rule.
func checkMarkers(t *testing.T, fs []Finding, want map[string]string) {
	t.Helper()
	got := map[string][]string{}
	for _, f := range fs {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Rule)
	}
	for key, rule := range want {
		if !slices.Contains(got[key], rule) {
			t.Errorf("injected bug at %s not reported as %s (mutation survived)", key, rule)
		}
	}
	for key, rs := range got {
		for _, r := range rs {
			if want[key] != r {
				t.Errorf("false positive: %s finding at unmarked line %s", r, key)
			}
		}
	}
	if t.Failed() {
		t.Logf("findings:")
		for _, f := range fs {
			t.Logf("  %v", f)
		}
	}
}
