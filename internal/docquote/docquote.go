// Package docquote holds a document's quotes of command output to the
// output a test regenerates. A quote is one fenced code block between
// a `<!-- pinned:<name> -->` line and a `<!-- /pinned -->` line; its
// first line inside the fence is the `$ ` command, the rest is the
// output, and <name> names the test that checks it.
package docquote

import (
	"fmt"
	"os"
	"strings"
)

// Check fails unless the file at path quotes, under name, exactly the
// lines of want in order. The error names the first line that differs.
func Check(path, name string, want []string) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return check(path, string(doc), name, want)
}

func check(path, doc, name string, want []string) error {
	open, closing := "<!-- pinned:"+name+" -->", "<!-- /pinned -->"
	lines := strings.Split(doc, "\n")
	start := -1
	for i, l := range lines {
		if l != open {
			continue
		}
		if start >= 0 {
			return fmt.Errorf("%s:%d: a second block %s", path, i+1, name)
		}
		start = i
	}
	if start < 0 {
		return fmt.Errorf("%s: no block %s", path, name)
	}
	end := start + 1
	for end < len(lines) && lines[end] != closing {
		end++
	}
	body := lines[start+1 : end]
	if end == len(lines) || len(body) < 3 || !strings.HasPrefix(body[0], "```") ||
		!strings.HasPrefix(body[1], "$ ") || body[len(body)-1] != "```" {
		return fmt.Errorf("%s:%d: block %s is not one fenced block that opens with a $ command", path, start+1, name)
	}
	got, at := body[2:len(body)-1], start+4 // at: the document line of got[0]
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(got):
			return fmt.Errorf("%s:%d: block %s ends before %q", path, at+i, name, want[i])
		case i >= len(want):
			return fmt.Errorf("%s:%d: block %s quotes %q, which the test does not print", path, at+i, name, got[i])
		case got[i] != want[i]:
			return fmt.Errorf("%s:%d: block %s quotes %q where the test prints %q", path, at+i, name, got[i], want[i])
		}
	}
	return nil
}
