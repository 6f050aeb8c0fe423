package vet

import (
	"strings"
	"testing"
)

// lock-pairing is a lexical rule: a hold is `x.P` as a top-level
// statement of its body, followed, after any other defers, by
// `defer x.V()`. These tests pin what it accepts and what it reports,
// including the shapes an earlier control-flow prover accepted.

func lockFindings(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Rule == "lock-pairing" {
			out = append(out, f)
		}
	}
	return out
}

const lockFixtureHeader = `
package dsm

type sema struct{}

func (s *sema) P(x int) {}
func (s *sema) V()      {}

type proc struct{}

func (p *proc) Exit() {}

func checkpoint(string) {}
`

// wantLockFindings analyzes the fixture and requires exactly one
// lock-pairing finding per substring, in source order.
func wantLockFindings(t *testing.T, src string, substrs ...string) {
	t.Helper()
	fs := lockFindings(analyze(t, "fixture/dsm", map[string]string{"a.go": lockFixtureHeader + src}))
	if len(fs) != len(substrs) {
		t.Fatalf("want %d lock-pairing findings, got %v", len(substrs), fs)
	}
	for i, s := range substrs {
		if !strings.Contains(fs[i].Msg, s) {
			t.Errorf("finding %d = %q, want it to contain %q", i, fs[i].Msg, s)
		}
	}
}

func TestLockHeldOnEarlyReturnFlagged(t *testing.T) {
	wantLockFindings(t, `
func earlyReturn(l *sema, err error) error {
	l.P(1)
	if err != nil {
		return err // l still held here
	}
	l.V()
	return nil
}
`, "l.P acquired in earlyReturn is not followed by defer l.V()")
}

func TestLockReleasedPerBranchClean(t *testing.T) {
	// The deferred release covers every branch's return.
	wantLockFindings(t, `
func viaDefer(l *sema, err error) error {
	l.P(1)
	defer l.V()
	if err != nil {
		return err
	}
	return nil
}

func perBranchViaDefer(l *sema, cond bool) int {
	l.P(1)
	defer checkpoint("after the release")
	defer l.V()
	if cond {
		return 1
	}
	return 0
}
`)
}

func TestLockSwitchCaseMissingReleaseFlagged(t *testing.T) {
	wantLockFindings(t, `
func switchLeak(l *sema, mode int) int {
	l.P(1)
	switch mode {
	case 0:
		l.V()
		return 0
	case 1:
		return 1 // held
	default:
		l.V()
		return 2
	}
}
`, "l.P acquired in switchLeak is not followed by defer l.V()")
}

func TestLockLoopBalancedClean(t *testing.T) {
	// A loop that holds the lock once per iteration holds it in a
	// function literal or a helper, whose body the hold spans.
	wantLockFindings(t, `
func loopBalanced(l *sema, n int) {
	for i := 0; i < n; i++ {
		func() {
			l.P(1)
			defer l.V()
		}()
	}
}

func loopWithContinue(l *sema, xs []int) int {
	total := 0
	for _, x := range xs {
		total += held(l, x)
	}
	return total
}

func held(l *sema, x int) int {
	l.P(1)
	defer l.V()
	if x < 0 {
		return 0
	}
	return x
}
`)
}

func TestLockLoopBreakWhileHeldFlagged(t *testing.T) {
	wantLockFindings(t, `
func breakHeld(l *sema, xs []int) {
	for _, x := range xs {
		l.P(1)
		if x == 0 {
			break // held past the loop to the return
		}
		l.V()
	}
}
`, "l.P in breakHeld is not a top-level statement of its body")
}

// TestLockCrashPathsCoveredByDefer: panic and a process Exit unwind
// through deferred calls, so a hold in the one shape is released on
// crash paths too and needs no exemption. The explicit-V fixtures an
// earlier prover exempted are now reported at their P.
func TestLockCrashPathsCoveredByDefer(t *testing.T) {
	wantLockFindings(t, `
func panics(l *sema, err error) {
	l.P(1)
	if err != nil {
		panic("corrupt state")
	}
	l.V()
}

func exits(l *sema, p *proc, dead bool) {
	l.P(1)
	if dead {
		p.Exit()
	}
	l.V()
}

func deferred(l *sema, p *proc, dead bool) {
	l.P(1)
	defer l.V()
	if dead {
		p.Exit()
	}
}
`, "l.P acquired in panics is not followed", "l.P acquired in exits is not followed")
}

// TestLockClosureReleaseFlagged: a V issued from a completion callback
// releases at a time no lexical rule can see; the hold is reported.
func TestLockClosureReleaseFlagged(t *testing.T) {
	wantLockFindings(t, `
func callback(l *sema, after func(func())) {
	l.P(1)
	after(func() {
		l.V()
	})
}
`, "l.P acquired in callback is not followed by defer l.V()")
}

func TestLockSignallingVWithoutPClean(t *testing.T) {
	wantLockFindings(t, `
func signal(l *sema) {
	l.V() // the producer half of a rendezvous: legal
}
`)
}

func TestLockTwoReceiversTrackedIndependently(t *testing.T) {
	wantLockFindings(t, `
func two(a, b *sema, err error) error {
	a.P(1)
	defer a.V()
	b.P(1)
	if err != nil {
		b.V()
		return err // b still held
	}
	b.V()
	return nil
}
`, "b.P acquired in two is not followed by defer b.V()")
}

func TestLockPairingLexicalRule(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string
	}{
		{"no-defer", `
func f(l *sema) {
	l.P(1)
	l.V()
}`, []string{"l.P acquired in f is not followed by defer l.V()"}},
		{"inside-if", `
func f(l *sema, cond bool) {
	if cond {
		l.P(1)
		defer l.V()
	}
}`, []string{"l.P in f is not a top-level statement"}},
		{"inside-for", `
func f(l *sema, n int) {
	for i := 0; i < n; i++ {
		l.P(1)
		l.V()
	}
}`, []string{"l.P in f is not a top-level statement"}},
		{"in-an-expression", `
func f(l *sema) {
	go l.P(1)
}`, []string{"l.P in f is not a top-level statement"}},
		{"other-receiver", `
func f(a, b *sema) {
	a.P(1)
	defer b.V()
}`, []string{"a.P acquired in f is followed by defer b.V(), which releases another semaphore"}},
		{"defer-after-a-statement", `
func f(l *sema) {
	l.P(1)
	checkpoint("held")
	defer l.V()
}`, []string{"l.P acquired in f is not followed by defer l.V()"}},
		{"other-defers-first", `
func f(l *sema) {
	l.P(1)
	defer checkpoint("after")
	defer l.V()
}`, nil},
		{"function-literal", `
func f(l *sema, spawn func(func())) {
	spawn(func() {
		l.P(1)
		defer l.V()
	})
	spawn(func() {
		l.P(1)
	})
}`, []string{"l.P acquired in a function literal in f is not followed"}},
		// Shapes balanced by explicit V calls, which a control-flow
		// prover accepted.
		{"per-branch", `
func perBranch(l *sema, cond bool) int {
	l.P(1)
	if cond {
		l.V()
		return 1
	}
	l.V()
	return 0
}`, []string{"l.P acquired in perBranch is not followed"}},
		{"loop-with-continue", `
func loopWithContinue(l *sema, xs []int) int {
	total := 0
	for _, x := range xs {
		l.P(1)
		if x < 0 {
			l.V()
			continue
		}
		total += x
		l.V()
	}
	return total
}`, []string{"l.P in loopWithContinue is not a top-level statement"}},
		{"two-receivers", `
func two(a, b *sema, err error) error {
	a.P(1)
	b.P(1)
	if err != nil {
		b.V()
		return err
	}
	a.V()
	b.V()
	return nil
}`, []string{"a.P acquired in two is not followed", "b.P acquired in two is not followed"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { wantLockFindings(t, tc.src, tc.want...) })
	}
}
