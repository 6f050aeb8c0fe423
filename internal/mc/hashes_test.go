package mc

import (
	"testing"

	"repro/internal/dsm"
)

// TestDFSReportsPinned pins the first 150 schedules of the pruned DFS on
// the four benchmark workloads to the reports recorded before
// fingerprints stopped being taken in the replayed prefix and page
// bodies entered them as a digest. Pruning decides what is explored, so
// a fingerprint that merged or split states differently — or a chooser
// that skipped one the strategy reads — would move these counters.
func TestDFSReportsPinned(t *testing.T) {
	cases := []struct {
		workload                           string
		pruned, frontier, maxPoints, steps int
	}{
		{"basic", 2504, 171, 100, 20621},
		{"dynamic", 302, 146, 71, 18568},
		{"quorum", 397, 220, 92, 15577},
		{"rc", 642, 38, 40, 15815},
	}
	for _, c := range cases {
		w, err := Lookup(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDFS(w, dsm.MutNone, DFSOpts{MaxSchedules: 150})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violating != nil {
			t.Fatalf("%s: false positive: %s", c.workload, rep)
		}
		if rep.Schedules != 150 || rep.Pruned != c.pruned || rep.Frontier != c.frontier ||
			rep.MaxPoints != c.maxPoints || rep.TotalSteps != c.steps {
			t.Errorf("%s: explored a different space:\n  got  %s\n  want schedules=150 pruned=%d frontier=%d max-points=%d steps=%d",
				c.workload, rep, c.pruned, c.frontier, c.maxPoints, c.steps)
		}
	}
}

// TestHashesOnlyWhereRead checks the Result.Hashes contract: one entry
// per choice point; zero inside the forced prefix and at or beyond the
// depth cap; elsewhere the fingerprint the same run takes when nothing
// is skipped; and none at all for a strategy that does not prune.
func TestHashesOnlyWhereRead(t *testing.T) {
	w, err := Lookup("basic")
	if err != nil {
		t.Fatal(err)
	}
	base, err := execute(w, dsm.MutNone, execOpts{hashes: true})
	if err != nil {
		t.Fatal(err)
	}
	// Force the default run's own first choices: the same run, replayed.
	const prefix, depth = 5, 12
	if len(base.Choices) <= depth {
		t.Fatalf("basic hit only %d choice points", len(base.Choices))
	}
	forced := append([]int(nil), base.Choices[:prefix]...)
	got, err := execute(w, dsm.MutNone, execOpts{forced: forced, hashes: true, hashDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hashes) != len(got.Choices) || len(got.Choices) != len(base.Choices) {
		t.Fatalf("%d hashes for %d choice points (unforced run: %d)", len(got.Hashes), len(got.Choices), len(base.Choices))
	}
	for i, h := range got.Hashes {
		switch {
		case i < prefix || i >= depth:
			if h != 0 {
				t.Errorf("choice point %d (prefix %d, depth cap %d): fingerprint %016x taken, want none", i, prefix, depth, h)
			}
		case h != base.Hashes[i] || h == 0:
			t.Errorf("choice point %d: fingerprint %016x, unforced run has %016x", i, h, base.Hashes[i])
		}
	}

	// DFSOpts.NoPrune runs with hashes off: no fingerprint is computed.
	plain, err := execute(w, dsm.MutNone, execOpts{forced: forced})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hashes != nil {
		t.Errorf("run without pruning collected %d fingerprints", len(plain.Hashes))
	}
}
