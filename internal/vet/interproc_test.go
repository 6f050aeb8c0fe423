package vet

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var wantMarkerRe = regexp.MustCompile(`want ([a-z][a-z-]*)(?: \(bug (\d+)\))?`)

// wantRuleLines maps file:line → the rule a `want <rule>` marker on
// that line demands, and lists in order the bug numbers the markers
// tag (`want <rule> (bug N)`).
func wantRuleLines(t *testing.T, dir string) (map[string]string, []int) {
	t.Helper()
	out := map[string]string{}
	var bugs []int
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
			m := wantMarkerRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			out[fmt.Sprintf("%s:%d", name, line)] = m[1]
			if n, err := strconv.Atoi(m[2]); err == nil && !slices.Contains(bugs, n) {
				bugs = append(bugs, n)
			}
		}
		f.Close()
	}
	slices.Sort(bugs)
	return out, bugs
}

// TestInterprocMutationsKilled is the cross-function mutation-kill
// harness: every injected bug in testdata/interbad must be reported on
// its marked line with the marked rule, and nothing else may be.
func TestInterprocMutationsKilled(t *testing.T) {
	dir := filepath.Join("testdata", "interbad")
	want, bugs := wantRuleLines(t, dir)
	if len(want) != 7 || !slices.Equal(bugs, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("fixture must carry exactly 7 want markers covering buffer bugs 1-5, found %d for bugs %v", len(want), bugs)
	}
	checkMarkers(t, analyzeTestdata(t, dir, "fixture/interbad"), want)
}

// TestInterprocCleanFixtureSilent pins the cross-function
// false-positive budget at zero: loans through recursion, method calls
// and interface dispatch, and a buffer owned by a function literal must
// all stay quiet.
func TestInterprocCleanFixtureSilent(t *testing.T) {
	if fs := analyzeTestdata(t, filepath.Join("testdata", "interclean"), "fixture/interclean"); len(fs) != 0 {
		t.Fatalf("clean fixture must be silent, got %v", fs)
	}
}
