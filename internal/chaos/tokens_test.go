package chaos

import "testing"

// tokenRow is one chaos token and the outcome its replay must give.
type tokenRow struct {
	token   string
	outcome Outcome
	detail  string // the failure's detail, while the row is pinned failing
	why     string
}

// tokenTable holds every chaos token the documentation names, and every
// one this repository's schedules have produced, with its expected
// outcome. A fix flips a row from its failure to OK; a new failure found
// in a wider sweep adds one.
var tokenTable = []tokenRow{
	// Counter workers are still mid-round when the judge reads the
	// counter: one lost or cut sync frame stalls the lock queue for
	// up to BlockingRetryInterval (5 s) and the judge waits 4.5 s.
	// Open until the sync-layer fix lands.
	{"chaos1:counter:drop:148", AppError, "counter = 7, want 18 with every host alive", "lost sync frame outlasts the judge"},
	{"chaos1:counter:drop:252", AppError, "counter = 14, want 18 with every host alive", "lost sync frame outlasts the judge"},
	{"chaos1:counter:drop:284", AppError, "counter = 17, want 18 with every host alive", "lost sync frame outlasts the judge"},
	{"chaos1:counter:partition:338", AppError, "counter = 17, want 18 with every host alive", "cut sync frame outlasts the judge"},
	// Alloc needs every host, so the workload's set-up waits out the
	// partition. Open until allocation commits at a majority.
	{"chaos1:quorum:partition:153", AppError, "no coordinator op completed during partition [805.832µs, 591.259093ms): the majority component stalled", "allocation waits for the cut host"},

	// Reads that returned a write still in flight: linearizable, but
	// the checker used to admit only completed writes, and the
	// quorum engine papered over it with a backdated synthetic write
	// that an older, later-completing write then superseded. The
	// first three failed on the traffic before phase-1 replies
	// dropped the asker's own version; the other three on the
	// traffic after.
	{"chaos1:quorum:drop:155", OK, "", "read of an in-flight write"},
	{"chaos1:quorum:drop:278", OK, "", "read of an in-flight write"},
	{"chaos1:quorum:mix:103", OK, "", "read of an in-flight write"},
	{"chaos1:quorum:drop:16", OK, "", "read of an in-flight write"},
	{"chaos1:quorum:drop:262", OK, "", "read of an in-flight write"},
	{"chaos1:quorum:mix:159", OK, "", "read of an in-flight write"},
	// A crashed quorum writer's value reaches later reads: these
	// fail unless a write is recorded as pending from the moment
	// phase 1 fixes its value.
	{"chaos1:quorum:crash:7", OK, "", "read of a crashed writer's pending write"},
	{"chaos1:quorum:crash:12", OK, "", "read of a crashed writer's pending write"},

	// A write-upgrade transaction invalidated the old owner's copy,
	// then aborted on a failed grant deliver (requester crashed
	// mid-transfer), leaving the manager entry naming an owner who
	// held nothing: an MRSW invariant violation when the stranded
	// owner was a peer, a serve panic when it was the manager
	// itself. The handoff is now committed even when the grant never
	// lands.
	{"chaos1:counter:crash:9", OK, "", "upgrade committed without its grant"},
	{"chaos1:counter:crash:11", OK, "", "upgrade committed without its grant"},
	{"chaos1:counter:crash:17", OK, "", "upgrade committed without its grant"},
	{"chaos1:counter:crash:19", OK, "", "upgrade committed without its grant"},
	{"chaos1:counter:crash:23", OK, "", "upgrade committed without its grant"},
	// The dynamic directory's owner died with requests in flight,
	// leaving the survivors' probable-owner hints in a cycle with
	// every hop alive; the chase panicked at the hop bound instead
	// of routing the requester through recovery.
	{"chaos1:forward:crash:5", OK, "", "probable-owner cycle goes through recovery"},
	// A page deliver in flight at crash time landed on the dead
	// requester, whose zombie install let application writes execute
	// on a crashed machine while the serving owner resurrected its
	// stale copy.
	{"chaos1:forward:crash:7", OK, "", "no install on a crashed host"},
	// A write-serve deliver landed but its ack was lost; when the
	// call finally errored (the new owner had crashed) the old owner
	// restored its copy, rolling back writes third parties had
	// already witnessed. Write handoffs are now arbitrated by the
	// requester's install confirmation, not the deliver ack.
	{"chaos1:forward:mix:15", OK, "", "handoff arbitrated by install confirmation"},
	// A write transfer's PageDeliver landed and the requester went on
	// writing, but the ack was lost and the requester was
	// partitioned, then crashed. When the deliver call failed the
	// serving manager restored its stale pre-transfer frame. A dead
	// write-requester whose installation was never confirmed now
	// means never resurrect. The same sweep caught the allocator
	// re-granting host 0 first-touch WriteAccess on a page already
	// owned remotely (mix:5's packing pattern).
	{"chaos1:switched:mix:12", OK, "", "no resurrection of an unconfirmed handoff"},
	{"chaos1:switched:mix:5", OK, "", "first-touch grant only on fresh pages"},
	// The README's replay example.
	{"chaos1:slots:crash:7", OK, "", "documented replay"},
}

// replayRow replays one row and checks its outcome and detail.
func replayRow(t *testing.T, c tokenRow) {
	t.Helper()
	r, err := Replay(c.token, Opts{})
	if err != nil {
		t.Fatalf("%s: %v", c.token, err)
	}
	if r.Outcome != c.outcome || r.Detail != c.detail {
		t.Errorf("%s (%s): %s %q, want %s %q", c.token, c.why, r.Outcome, r.Detail, c.outcome, c.detail)
	}
}

// replayTokens replays the named tokens by their rows in tokenTable.
func replayTokens(t *testing.T, tokens ...string) {
	t.Helper()
	for _, tok := range tokens {
		found := false
		for _, c := range tokenTable {
			if c.token == tok {
				replayRow(t, c)
				found = true
			}
		}
		if !found {
			t.Fatalf("%s is not in tokenTable", tok)
		}
	}
}

// TestTokenTable replays every row of tokenTable.
func TestTokenTable(t *testing.T) {
	for _, c := range tokenTable {
		t.Run(c.token, func(t *testing.T) { replayRow(t, c) })
	}
}

// TestUpgradeGrantCrashRegression pins the write-upgrade handoff that is
// committed even when its grant never lands; these seeds found both the
// stranded-peer and the manager-panic shape.
func TestUpgradeGrantCrashRegression(t *testing.T) {
	replayTokens(t,
		EncodeToken("counter", ClassCrash, 9),
		EncodeToken("counter", ClassCrash, 11),
		EncodeToken("counter", ClassCrash, 17),
		EncodeToken("counter", ClassCrash, 19),
		EncodeToken("counter", ClassCrash, 23))
}

// TestDynamicForwardCrashRegression pins the dynamic directory's three
// crash-handling fixes found by the forward workload.
func TestDynamicForwardCrashRegression(t *testing.T) {
	replayTokens(t,
		EncodeToken("forward", ClassCrash, 5),
		EncodeToken("forward", ClassCrash, 7),
		EncodeToken("forward", ClassMix, 15))
}

// TestSwitchedStaleRestoreRegression pins the fixed directory's
// never-resurrect rule for an unconfirmed write handoff and the
// fresh-page-only first-touch grant.
func TestSwitchedStaleRestoreRegression(t *testing.T) {
	replayTokens(t,
		EncodeToken("switched", ClassMix, 12),
		EncodeToken("switched", ClassMix, 5))
}
