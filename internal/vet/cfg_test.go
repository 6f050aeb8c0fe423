package vet

import (
	"fmt"
	"strings"
	"testing"
)

// The CFG and dataflow engine have one client, buf-own, and are
// exercised end to end through it: each case shapes control flow
// (branches, loops, switches, defers, crash paths, closures) around a
// pooled buffer. A `// want` line must carry a leak finding, anchored
// at its acquire, and a `// exit` line is the return its message names
// — the path the CFG must have followed. Every other line stays clean.
func TestCFGShapesThroughBufOwn(t *testing.T) {
	cases := []struct{ name, src string }{
		{"early-return", `
func earlyReturn(err error) error {
	buf := bufpool.Get(64) // want
	if err != nil {
		return err // exit
	}
	bufpool.Put(buf)
	return nil
}`},
		{"per-branch-release", `
func perBranch(cond bool) int {
	buf := bufpool.Get(64)
	if cond {
		bufpool.Put(buf)
		return 1
	}
	bufpool.Put(buf)
	return 0
}

func viaDefer(err error) error {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	if err != nil {
		return err
	}
	return nil
}`},
		{"switch-case", `
func switchLeak(mode int) int {
	buf := bufpool.Get(64) // want
	switch mode {
	case 0:
		bufpool.Put(buf)
		return 0
	case 1:
		return 1 // exit
	default:
		bufpool.Put(buf)
		return 2
	}
}`},
		{"balanced-loop", `
func loopBalanced(n int) {
	for i := 0; i < n; i++ {
		buf := bufpool.Get(64)
		bufpool.Put(buf)
	}
}

func loopWithContinue(xs []int) int {
	total := 0
	for _, x := range xs {
		buf := bufpool.Get(64)
		if x < 0 {
			bufpool.Put(buf)
			continue
		}
		total += x
		bufpool.Put(buf)
	}
	return total
}`},
		{"break-while-held", `
func breakHeld(xs []int) {
	for _, x := range xs {
		buf := bufpool.Get(64) // want
		if x == 0 {
			break // held past the loop to the implicit return
		}
		bufpool.Put(buf)
	}
} // exit`},
		{"crash-paths", `
func panics(err error) {
	buf := bufpool.Get(64)
	if err != nil {
		panic("corrupt state") // no edge to the exit: nothing leaks
	} else {
		bufpool.Put(buf)
	}
}

func exits(p *proc, dead bool) {
	buf := bufpool.Get(64)
	if dead {
		p.Exit()
	} else {
		bufpool.Put(buf)
	}
}`},
		{"closure-release", `
func callback(after func(func())) {
	buf := bufpool.Get(64)
	after(func() {
		bufpool.Put(buf)
	})
}`},
		{"release-without-acquire", `
func give(buf []byte) {
	bufpool.Put(buf) // the caller's buffer: a release, not a leak
}`},
		{"two-buffers", `
func two(err error) error {
	a := bufpool.Get(64) // want
	b := bufpool.Get(64)
	if err != nil {
		bufpool.Put(b)
		return err // exit
	}
	bufpool.Put(a)
	bufpool.Put(b)
	return nil
}`},
	}
	const header = `package dsm

import "repro/internal/bufpool"

type proc struct{}

func (p *proc) Exit() {}
`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := header + tc.src + "\n"
			want, exit := map[int]bool{}, 0
			for i, line := range strings.Split(src, "\n") {
				if strings.Contains(line, "// want") {
					want[i+1] = true
				}
				if strings.Contains(line, "// exit") {
					exit = i + 1
				}
			}
			got := map[int]bool{}
			for _, f := range analyze(t, "fixture/dsm", map[string]string{"a.go": src}) {
				if f.Rule != "buf-own" {
					continue
				}
				got[f.Pos.Line] = true
				if !want[f.Pos.Line] {
					t.Errorf("unexpected finding %v", f)
				} else if onLine := fmt.Sprintf("return on line %d", exit); !strings.Contains(f.Msg, onLine) {
					t.Errorf("finding %v does not name the %s", f, onLine)
				}
			}
			for line := range want {
				if !got[line] {
					t.Errorf("line %d: leak not reported", line)
				}
			}
		})
	}
}
