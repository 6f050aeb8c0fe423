package main

import (
	"bytes"
	"strings"
	"testing"
)

// The exit status is the tool's contract with make and CI: 0 clean or
// mutation killed, 2 violation or mutation survived, 1 usage error
// (named on stderr, nothing run).
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stdout string // substring; "" means stdout must be empty
		stderr string // substring
	}{
		{"-workload=slots -class=drop -seed=1 -runs=1", 0, "survived=1/1", ""},
		// One seed of every workload × class, 28 campaigns.
		{"-workload=all -class=all -seed=1 -runs=1", 0, "chaos1:switched:mix:1 ok", ""},
		// Runs 1, 2, 4 and 5 each return a stale read; run 3's reads of
		// the local replica all linearize.
		{"-workload=quorum -class=mix -seed=1 -runs=5 -mutation=stale-quorum-read", 0, "KILLED: caught in 4/5", ""},
		// A quorum bug cannot fire under MRSW, so this survivor is stable.
		{"-workload=slots -class=drop -runs=1 -mutation=stale-quorum-read", 2, "SURVIVED", ""},
		{"-runs=0", 1, "", "-runs=0"},
		{"-workload=nosuch", 1, "", "nosuch"},
		{"-class=nosuch", 1, "", "nosuch"},
		{"-mutation=stale-quorum-read -verify", 1, "", "-mutation cannot be combined"},
		{"-max-steps=-1", 1, "", "-max-steps=-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), c.stdout) || (c.stdout == "") != (stdout.Len() == 0) {
			t.Errorf("%s: stdout %q, want %q", c.args, stdout.String(), c.stdout)
		}
		if !strings.Contains(stderr.String(), c.stderr) || (c.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("%s: stderr %q, want %q", c.args, stderr.String(), c.stderr)
		}
	}
}
