package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

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
