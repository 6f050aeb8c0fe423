package mc

import (
	"testing"

	"repro/internal/docquote"
	"repro/internal/dsm"
)

// TestDFSReportsPinned pins the first 150 schedules of the pruned DFS on
// the four benchmark workloads to the reports recorded before
// fingerprints stopped being taken in the replayed prefix and page
// bodies entered them as a digest, and on crash — the one workload with
// failure detection, so the one that reaches page recovery, suspect
// reconciliation and the confirm give-up — to its report when the
// directory schemes were folded onto one transaction record. The
// migration and central rows are pinned as first recorded; central's
// whole space is 12 schedules. Pruning
// decides what is explored, so a fingerprint that merged or split
// states differently — or a chooser that skipped one the strategy
// reads — would move these counters. EXPERIMENTS.md quotes the seven
// reports under this test's name, and a quote that differs fails here.
func TestDFSReportsPinned(t *testing.T) {
	cases := []struct {
		workload                                      string
		schedules, pruned, frontier, maxPoints, steps int
	}{
		{"basic", 150, 2504, 171, 100, 20621},
		{"crash", 150, 450, 426, 256, 43321},
		{"dynamic", 150, 302, 146, 71, 18568},
		{"quorum", 150, 397, 60, 72, 12577},
		{"rc", 150, 482, 38, 36, 15017},
		{"migration", 150, 1579, 59, 44, 9068},
		{"central", 12, 3, 0, 6, 249},
	}
	var reports []string
	for _, c := range cases {
		w, err := Lookup(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDFS(w, dsm.MutNone, DFSOpts{MaxSchedules: 150})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep.String())
		if rep.Violating != nil {
			t.Fatalf("%s: false positive: %s", c.workload, rep)
		}
		if rep.Schedules != c.schedules || rep.Pruned != c.pruned || rep.Frontier != c.frontier ||
			rep.MaxPoints != c.maxPoints || rep.TotalSteps != c.steps {
			t.Errorf("%s: explored a different space:\n  got  %s\n  want schedules=%d pruned=%d frontier=%d max-points=%d steps=%d",
				c.workload, rep, c.schedules, c.pruned, c.frontier, c.maxPoints, c.steps)
		}
	}
	if err := docquote.Check("../../EXPERIMENTS.md", "mc.TestDFSReportsPinned", reports); err != nil {
		t.Error(err)
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
