package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestOnlySelectsNamedSections: -only prints exactly the sections it
// names, and a name that is no section is an error listing the valid
// ones — it used to print nothing and exit 0.
func TestOnlySelectsNamedSections(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "bench_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	table1, _, _ := bytes.Cut(want, []byte("Table 2:"))
	var got bytes.Buffer
	if err := run(&got, "t1"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), table1) {
		t.Errorf("-only t1 printed:\n%s\nwant the Table 1 block of bench_results.txt:\n%s", got.Bytes(), table1)
	}
	for _, only := range []string{"nosuch", "t1,nosuch", "t1,,t2", ","} {
		err := run(io.Discard, only)
		if err == nil || !strings.Contains(err.Error(), "unknown section") || !strings.Contains(err.Error(), "scale1k") {
			t.Errorf("run(-only %q) = %v, want an unknown-section error listing the valid names", only, err)
		}
	}
}

// TestGolden is the bit-identity gate every behaviour-preserving
// refactor is held to: the default run (every section a plain
// `mermaid-bench` prints) must equal the committed bench_results.txt
// byte for byte. All of it is virtual time, so the comparison is exact.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run (≈5 s)")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "bench_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output diverges from bench_results.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, bench_results.txt has %d", len(gl), len(wl))
	}
}

// TestGoldenByName pins the by-name sections that the default run,
// and so TestGolden, leaves out: `mermaid-bench -only <name>` must equal
// testdata/<name>_results.txt byte for byte. `avail` drives central,
// update and quorum under a partition; `scale1k` is the directory
// ablation from 16 to 1024 hosts.
func TestGoldenByName(t *testing.T) {
	for _, name := range []string{"rc", "dirs", "avail", "scale1k"} {
		t.Run(name, func(t *testing.T) {
			file := filepath.Join("testdata", name+"_results.txt")
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("-only %s printed:\n%s\nwant %s:\n%s", name, got.Bytes(), file, want)
			}
		})
	}
}

// A quoted block in EXPERIMENTS.md is mermaid-bench output pasted
// between two markers, fenced:
//
//	<!-- bench -->           or <!-- bench:<name> -->
//	```text
//	…the lines of one or more sections…
//	```
//	<!-- /bench -->
//
// A block quotes whole sections and leaves out the blank line that
// mermaid-bench prints after the last one.
var quoteOpen = regexp.MustCompile(`^<!-- bench(?::([a-z0-9]+))? -->$`)

const quoteClose = "<!-- /bench -->"

type quote struct {
	name  string // empty for a block of the default run
	line  int    // of the opening marker, counted from 1
	text  []byte // the fenced lines plus the blank line after them
	lines []int  // document line of each line of text
}

// parseQuotes returns the blocks of doc in document order.
func parseQuotes(doc []byte) ([]quote, error) {
	var (
		quotes []quote
		open   *quote
		body   []int // indices of the lines between the markers
	)
	lines := strings.Split(string(doc), "\n")
	for i, l := range lines {
		n := i + 1
		switch {
		case quoteOpen.MatchString(l):
			if open != nil {
				return nil, fmt.Errorf("line %d: block opened inside the block of line %d", n, open.line)
			}
			open = &quote{name: quoteOpen.FindStringSubmatch(l)[1], line: n}
			body = body[:0]
		case l == quoteClose:
			if open == nil {
				return nil, fmt.Errorf("line %d: %s without an opening marker", n, quoteClose)
			}
			if len(body) < 2 || !strings.HasPrefix(lines[body[0]], "```") || lines[body[len(body)-1]] != "```" {
				return nil, fmt.Errorf("line %d: the block is not one fenced code block", open.line)
			}
			for _, b := range body[1 : len(body)-1] {
				open.text = append(append(open.text, lines[b]...), '\n')
				open.lines = append(open.lines, b+1)
			}
			open.text = append(open.text, '\n')
			open.lines = append(open.lines, n)
			quotes = append(quotes, *open)
			open = nil
		case strings.HasPrefix(l, "<!-- bench") || strings.HasPrefix(l, "<!-- /bench"):
			return nil, fmt.Errorf("line %d: malformed marker %q", n, l)
		case open != nil:
			body = append(body, i)
		}
	}
	if open != nil {
		return nil, fmt.Errorf("line %d: block never closed", open.line)
	}
	return quotes, nil
}

// checkQuotes holds the blocks of doc to the goldens: the unnamed blocks,
// joined in document order, must equal defaultRun byte for byte, and
// each golden in byName must be quoted by exactly one block of its
// name, equal to it.
func checkQuotes(doc, defaultRun []byte, byName map[string][]byte) error {
	quotes, err := parseQuotes(doc)
	if err != nil {
		return err
	}
	var (
		errs   []error
		joined []byte
		at     []int
		seen   = make(map[string]int)
	)
	for _, q := range quotes {
		if q.name == "" {
			joined = append(joined, q.text...)
			at = append(at, q.lines...)
			continue
		}
		seen[q.name]++
		want, ok := byName[q.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("line %d: block bench:%s has no golden testdata/%s_results.txt", q.line, q.name, q.name))
		case !bytes.Equal(q.text, want):
			errs = append(errs, fmt.Errorf("line %d: block bench:%s differs from testdata/%s_results.txt", q.line, q.name, q.name))
		}
	}
	if !bytes.Equal(joined, defaultRun) {
		gl, wl := bytes.Split(joined, []byte("\n")), bytes.Split(defaultRun, []byte("\n"))
		i := 0
		for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
			i++
		}
		switch {
		case i < len(at):
			errs = append(errs, fmt.Errorf("line %d: the default-run blocks read %q where bench_results.txt line %d has %q", at[i], gl[i], i+1, wl[min(i, len(wl)-1)]))
		default:
			errs = append(errs, fmt.Errorf("the default-run blocks stop before bench_results.txt line %d", i+1))
		}
	}
	for _, name := range sim.SortedKeys(byName) {
		if seen[name] != 1 {
			errs = append(errs, fmt.Errorf("testdata/%s_results.txt is quoted %d times, want once", name, seen[name]))
		}
	}
	return errors.Join(errs...)
}

// TestExperimentsQuoteGoldens keeps the paper tables in EXPERIMENTS.md
// the goldens that TestGolden and TestGoldenByName hold the program to:
// a table that goes stale fails here. It reads files only. Its cases
// edit the document and check that each edit is caught.
func TestExperimentsQuoteGoldens(t *testing.T) {
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	doc := string(read(filepath.Join("..", "..", "EXPERIMENTS.md")))
	defaultRun := read(filepath.Join("..", "..", "bench_results.txt"))
	files, err := filepath.Glob(filepath.Join("testdata", "*_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string][]byte)
	for _, f := range files {
		byName[strings.TrimSuffix(filepath.Base(f), "_results.txt")] = read(f)
	}
	block := func(name string) string {
		open := "<!-- bench:" + name + " -->\n"
		if name == "" {
			open = "<!-- bench -->\n"
		}
		i := strings.Index(doc, open)
		if i < 0 {
			t.Fatalf("EXPERIMENTS.md has no block %q", name)
		}
		j := strings.Index(doc[i:], quoteClose+"\n")
		return doc[i : i+j+len(quoteClose)+1]
	}
	// The first digit of the first default-run block, plus one.
	first := block("")
	d := strings.IndexAny(first, "0123456789")
	edited := first[:d] + string('0'+(first[d]-'0'+1)%10) + first[d+1:]
	rc := block("rc")
	for _, c := range []struct {
		name, doc, want string
	}{
		{"as committed", doc, ""},
		{"one digit edited", strings.Replace(doc, first, edited, 1), "the default-run blocks read"},
		{"default-run block missing", strings.Replace(doc, first, "", 1), "the default-run blocks read"},
		{"named block missing", strings.Replace(doc, rc, "", 1), "rc_results.txt is quoted 0 times"},
		{"two blocks of one name", doc + "\n" + rc, "rc_results.txt is quoted 2 times"},
		{"named block without a golden", doc + "\n" + strings.Replace(rc, "bench:rc", "bench:nosuch", 1), "block bench:nosuch has no golden"},
		{"named block edited", strings.Replace(doc, rc, strings.Replace(rc, "216", "217", 1), 1), "block bench:rc differs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkQuotes([]byte(c.doc), defaultRun, byName)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("EXPERIMENTS.md: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("checkQuotes = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
