// Command mermaid-vet runs the project's custom static analyzer
// (internal/vet) over the module's packages:
//
//	go run ./cmd/mermaid-vet [-json] [-max-elapsed-ms=N] ./...
//
// It type-checks every package from source, resolving imports through
// the gc export data that `go list -export` produces — standard
// library only, no network, no third-party analysis frameworks — and
// exits non-zero if any rule fires.
//
// The run is two-phased. Phase A parses and type-checks all target
// packages in parallel (each worker owns a FileSet and gc importer;
// neither is safe to share). Phase B runs the per-package rules in
// parallel. With -json the findings, coverage statistics and per-rule
// timings are printed as a single JSON object. See internal/vet for
// the rules.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/vet"
)

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
}

// report is the -json output shape.
type report struct {
	Findings []vet.Finding `json:"findings"`
	Stats    struct {
		Packages   int   `json:"packages"`
		Suppressed int   `json:"suppressed"`
		ElapsedMS  int64 `json:"elapsed_ms"`
	} `json:"stats"`
	TimingsMS map[string]float64 `json:"timings_ms"`
	ByRule    map[string]int     `json:"findings_by_rule"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mermaid-vet:", err)
		os.Exit(2)
	}
}

// pkgResult is one worker's phase-B output for one package.
type pkgResult struct {
	findings []vet.Finding
	stats    vet.Stats
}

func run(args []string) error {
	fs := flag.NewFlagSet("mermaid-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings and coverage statistics as JSON")
	maxElapsed := fs.Int64("max-elapsed-ms", 0, "fail if the run exceeds this wall-time budget (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()

	module, err := goModulePath()
	if err != nil {
		return err
	}

	// One `go list` resolves everything: the module packages to
	// analyze, their dependency closure, and the compiled export data
	// that lets go/types resolve every import offline.
	pkgs, err := goList(patterns)
	if err != nil {
		return err
	}
	exports := map[string]string{}
	var targets []*listedPackage
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && strings.HasPrefix(p.ImportPath, module) {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	cfg := vet.DefaultConfig(module)

	// Phase A: parse and type-check every target in parallel. The
	// exports map is read-only from here on; each worker builds its own
	// FileSet and gc importer, which are not safe to share. The
	// resulting vet.Package carries its worker's FileSet, so phase B
	// can use it from any goroutine.
	loaded := make([]*vet.Package, len(targets))
	errs := make([]error, len(targets))
	fanOut(len(targets), func(worker int, indexes <-chan int) {
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
		for i := range indexes {
			loaded[i], errs[i] = loadPackage(fset, imp, targets[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Phase B: run the per-package rules in parallel.
	results := make([]pkgResult, len(targets))
	fanOut(len(targets), func(worker int, indexes <-chan int) {
		for i := range indexes {
			if loaded[i] == nil {
				continue
			}
			findings, stats := vet.CheckWithStats(loaded[i], cfg)
			results[i] = pkgResult{findings: findings, stats: stats}
		}
	})

	var findings []vet.Finding
	var stats vet.Stats
	for _, r := range results {
		findings = append(findings, r.findings...)
		stats.Add(r.stats)
	}
	vet.SortFindings(findings)

	elapsed := time.Since(start)
	if *jsonOut {
		rep := report{Findings: findings, ByRule: map[string]int{}, TimingsMS: map[string]float64{}}
		if rep.Findings == nil {
			rep.Findings = []vet.Finding{}
		}
		for _, f := range findings {
			rep.ByRule[f.Rule]++
		}
		for rule, ns := range stats.RuleNanos {
			rep.TimingsMS[rule] += float64(ns) / 1e6
		}
		rep.Stats.Packages = len(targets)
		rep.Stats.Suppressed = stats.Suppressed
		rep.Stats.ElapsedMS = elapsed.Milliseconds()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	failed := false
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "mermaid-vet: %d finding(s)\n", n)
		failed = true
	}
	if *maxElapsed > 0 && elapsed.Milliseconds() > *maxElapsed {
		fmt.Fprintf(os.Stderr, "mermaid-vet: run took %dms, over the %dms budget\n",
			elapsed.Milliseconds(), *maxElapsed)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	return nil
}

// fanOut distributes n indexed work items over GOMAXPROCS workers.
func fanOut(n int, worker func(worker int, indexes <-chan int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w, work)
		}(w)
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// loadPackage parses and type-checks one package.
func loadPackage(fset *token.FileSet, imp types.Importer, p *listedPackage) (*vet.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return vet.NewPackage(fset, p.ImportPath, files, imp), nil
}

// goModulePath reports the main module's path.
func goModulePath() (string, error) {
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" {
		return "", fmt.Errorf("not inside a Go module")
	}
	return mod, nil
}

// goList runs `go list -json -export -deps` over the patterns and
// decodes the package stream.
func goList(patterns []string) ([]*listedPackage, error) {
	cmdArgs := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
