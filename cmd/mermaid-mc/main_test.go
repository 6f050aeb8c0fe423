package main

import (
	"bytes"
	"regexp"
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

// Each row exits 0 and prints one report line per workload it
// explores; the kill suite's report ends in its tally line.
func TestSmallExplorationPrintsOneReport(t *testing.T) {
	for _, c := range []struct{ args, stdout string }{
		{"-workload=basic -max-schedules=5", "workload=basic .*\n"},
		{"-workload=basic,central -max-schedules=5", "workload=basic .*\nworkload=central .*\n"},
		{"-kill -kill-budget=100", "(?s:.*)\n14/14 mutations killed\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
			t.Errorf("%s: exit %d, stderr %q", c.args, code, stderr.String())
		}
		if !regexp.MustCompile("^" + c.stdout + "$").MatchString(stdout.String()) {
			t.Errorf("%s: stdout %q, want it to match %q", c.args, stdout.String(), c.stdout)
		}
	}
}
