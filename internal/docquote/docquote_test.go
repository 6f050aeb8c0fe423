package docquote

import (
	"strings"
	"testing"
)

// TestCheck: the committed shape passes, and every way a quote can
// drift from what the test prints is caught with the line it is on.
func TestCheck(t *testing.T) {
	const doc = "# t\n\n<!-- pinned:x -->\n```text\n$ run x\none\ntwo\n```\n<!-- /pinned -->\n"
	want := []string{"one", "two"}
	for _, c := range []struct {
		name, doc string
		want      []string
		err       string
	}{
		{"as written", doc, want, ""},
		{"a line edited", strings.Replace(doc, "two", "tw0", 1), want, `doc.md:7: block x quotes "tw0" where the test prints "two"`},
		{"a line dropped", strings.Replace(doc, "two\n", "", 1), want, `doc.md:7: block x ends before "two"`},
		{"a line added", strings.Replace(doc, "two\n", "two\nthree\n", 1), want, `doc.md:8: block x quotes "three", which the test does not print`},
		{"no block", strings.Replace(doc, "pinned:x", "pinned:y", 1), want, "doc.md: no block x"},
		{"two blocks", doc + doc, want, "doc.md:12: a second block x"},
		{"no command line", strings.Replace(doc, "$ run x\n", "", 1), want, "doc.md:3: block x is not one fenced block"},
		{"never closed", strings.Replace(doc, "<!-- /pinned -->", "", 1), want, "doc.md:3: block x is not one fenced block"},
	} {
		err := check("doc.md", c.doc, "x", c.want)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.err)
		}
	}
}
