// Command mermaid-benchjson converts `go test -bench` text output into
// a stable JSON document, and validates such documents.
//
// Usage:
//
//	go test -run '^$' -bench Real -benchmem . | mermaid-benchjson -o BENCH.json
//	mermaid-benchjson -validate BENCH.json
//
// The emitted JSON is deliberately timestamp-free so that re-running
// the harness on unchanged code produces a minimal diff: only the
// measured numbers move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line. Metrics not produced by a given
// benchmark (e.g. MB/s without -benchmem, or B/op without SetBytes)
// are omitted from the JSON rather than reported as zero.
type Result struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	MBPerS      *float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the top-level document.
type Report struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	validate := flag.String("validate", "", "validate an existing JSON report instead of parsing bench output")
	flag.Parse()

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "mermaid-benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *validate)
		return
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mermaid-benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "mermaid-benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mermaid-benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mermaid-benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// parse reads `go test -bench` output. Benchmark lines look like:
//
//	BenchmarkName-8   1000  1234 ns/op  56.78 MB/s  32 B/op  1 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped. Header lines (goos/goarch/pkg/
// cpu) populate the report metadata; everything else is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, *res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

func parseLine(line string) (*Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return nil, fmt.Errorf("want at least name, iterations, and one metric")
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("iterations: %w", err)
	}
	res := &Result{Name: name, Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("metric value %q: %w", fields[i], err)
		}
		val := v
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
			seenNs = true
		case "MB/s":
			res.MBPerS = &val
		case "B/op":
			res.BytesPerOp = &val
		case "allocs/op":
			res.AllocsPerOp = &val
		default:
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[unit] = val
		}
	}
	if !seenNs {
		return nil, fmt.Errorf("no ns/op metric")
	}
	return res, nil
}

// validateFile checks that a report is well-formed: parseable JSON,
// at least one benchmark, and every benchmark carrying a name,
// positive iteration count, and positive ns/op.
func validateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks", path)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("%s: benchmark with empty name", path)
		}
		if b.Iterations <= 0 {
			return fmt.Errorf("%s: %s: iterations %d", path, b.Name, b.Iterations)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("%s: %s: ns_per_op %v", path, b.Name, b.NsPerOp)
		}
	}
	return nil
}
