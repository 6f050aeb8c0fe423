package vet

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// analyzeInterproc parses a fixture package under testdata and runs
// the full interprocedural pipeline over it the way cmd/mermaid-vet
// does: summaries + intraprocedural rules, then the lock-order join.
func analyzeInterproc(t *testing.T, dir, pkgPath string) ([]Finding, Stats) {
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
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg := NewPackage(fset, pkgPath, files, nil)
	cfg := &Config{
		BufOwnPackages:    []string{pkgPath},
		MapOrderPackages:  []string{pkgPath},
		LockOrderPackages: []string{pkgPath},
		BufPoolPackage:    "repro/internal/bufpool",
		ProtoPackage:      "repro/internal/proto",
	}
	fs, stats := CheckWithTable(pkg, cfg, NewSummaryTable())
	lofs, _ := CheckLockOrder([]*LockFacts{CollectLockFacts(pkg, cfg)})
	return append(fs, lofs...), stats
}

var wantMarkerRe = regexp.MustCompile(`want ([a-z][a-z-]*)`)

// wantRuleLines maps file:line → the rule a `want <rule>` marker on
// that line demands.
func wantRuleLines(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantMarkerRe.FindStringSubmatch(sc.Text()); m != nil {
				out[fmt.Sprintf("%s:%d", name, line)] = m[1]
			}
		}
		f.Close()
	}
	return out
}

// TestInterprocMutationsKilled is the cross-function mutation-kill
// harness: every injected bug in testdata/interbad must be reported on
// its marked line with the marked rule, and nothing else may be.
func TestInterprocMutationsKilled(t *testing.T) {
	dir := filepath.Join("testdata", "interbad")
	fs, _ := analyzeInterproc(t, dir, "fixture/interbad")
	want := wantRuleLines(t, dir)
	if len(want) != 8 {
		t.Fatalf("fixture must carry exactly 8 want markers, found %d", len(want))
	}
	got := map[string][]string{}
	for _, f := range fs {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Rule)
	}
	for key, rule := range want {
		found := false
		for _, r := range got[key] {
			if r == rule {
				found = true
			}
		}
		if !found {
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

// TestInterprocCleanFixtureSilent pins the interprocedural
// false-positive budget at zero: recursion, method values, interface
// dispatch, closures, helper releases and a consistent lock order must
// all stay quiet.
func TestInterprocCleanFixtureSilent(t *testing.T) {
	fs, stats := analyzeInterproc(t, filepath.Join("testdata", "interclean"), "fixture/interclean")
	if len(fs) != 0 {
		t.Fatalf("clean fixture must be silent, got %v", fs)
	}
	if stats.Summarized == 0 {
		t.Fatal("clean fixture produced no summaries; the interprocedural layer did not run")
	}
}
