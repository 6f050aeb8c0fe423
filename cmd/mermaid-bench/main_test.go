package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// update and quorum under a partition; `scale` is the 16–256-host
// directory ablation and `scale1k` the same with the 1024-host runs.
func TestGoldenByName(t *testing.T) {
	for _, name := range []string{"rc", "dirs", "avail", "scale", "scale1k"} {
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
