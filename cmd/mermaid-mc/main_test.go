package main

import (
	"bytes"
	"strings"
	"testing"
)

// A budget below its minimum is a usage error naming the flag: nothing
// is explored and nothing is printed to stdout. (They used to be
// replaced by the default budget and exit green.)
func TestNonPositiveBudgetsAreUsageErrors(t *testing.T) {
	for _, c := range []struct{ arg, flag string }{
		{"-runs=0", "-runs"},
		{"-runs=-3", "-runs"},
		{"-max-schedules=0", "-max-schedules"},
		{"-max-schedules=-1", "-max-schedules"},
		{"-kill-budget=0", "-kill-budget"},
		{"-delays=-1", "-delays"},
		{"-depth=-1", "-depth"},
		{"-max-steps=-1", "-max-steps"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload=basic", c.arg}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", c.arg, code)
		}
		if !strings.Contains(stderr.String(), c.flag+"=") {
			t.Errorf("%s: stderr %q does not name the flag", c.arg, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: explored anyway: %q", c.arg, stdout.String())
		}
	}
}

func TestSmallExplorationPrintsOneReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload=basic", "-max-schedules=5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "\n"); n != 1 || !strings.HasPrefix(stdout.String(), "workload=basic ") {
		t.Errorf("want one report line for basic, got %q", stdout.String())
	}
}
