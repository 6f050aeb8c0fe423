package vet

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTreeClean runs every rule over every package of the module, with
// the scoping of DefaultConfig, and fails on any finding. Imports
// resolve through the export data `go list -export` builds, so the
// rules that need full type information get it.
func TestTreeClean(t *testing.T) {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(gomod)))
	list := exec.Command("go", "list", "-json", "-export", "-deps", "./...")
	list.Dir = root
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct {
			Path string
			Main bool
		}
	}
	exports := map[string]string{}
	var targets []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Main {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		t.Fatal("go list found no package of the module")
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			t.Errorf("no export data for %q: the rules would see its types as unknown", path)
		}
		return os.Open(exports[path])
	})
	cfg := DefaultConfig(targets[0].Module.Path)
	var findings []Finding
	listedDir := map[string]bool{}
	for _, p := range targets {
		// The test result cache keeps a pass until a file the test
		// opened changes; listing each package directory and its
		// parents makes an added file or package such a change.
		for d := p.Dir; !listedDir[d] && strings.HasPrefix(d, root); d = filepath.Dir(d) {
			listedDir[d] = true
			if _, err := os.ReadDir(d); err != nil {
				t.Fatal(err)
			}
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		findings = append(findings, Check(NewPackage(fset, p.ImportPath, files, imp), cfg)...)
	}
	t.Logf("%d packages checked", len(targets))
	SortFindings(findings)
	for _, f := range findings {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			f.Pos.Filename = rel
		}
		t.Error(f)
	}
}
