package mc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// TestDefaultScheduleClean runs every workload once under the default
// schedule: all oracles must stay silent on the unmutated protocol.
func TestDefaultScheduleClean(t *testing.T) {
	for _, w := range All() {
		res, err := execute(w, dsm.MutNone, execOpts{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Outcome != cluster.OK {
			t.Errorf("%s: default schedule: %s: %s", w.Name, res.Outcome, res.Detail)
		}
		if res.Steps == 0 || len(res.Choices) == 0 {
			t.Errorf("%s: suspiciously trivial run: %d steps, %d choice points", w.Name, res.Steps, len(res.Choices))
		}
	}
}

// TestDFSClean explores the bounded schedule space of each workload on
// the unmutated protocol: every schedule must pass every oracle. The
// small workloads are exhausted outright (frontier 0; barrier's space is
// 706 schedules, so the short budget covers it too); "basic" must yield
// at least 1000 distinct schedules within budget — the smoke guarantee
// that the chooser actually branches the space open. With TestKillSuite
// this covers every run `make mc-smoke` performs.
func TestDFSClean(t *testing.T) {
	budget := 1500
	if testing.Short() {
		budget = 800
	}
	for _, name := range []string{"basic", "sem", "barrier", "update", "rc", "dynamic", "quorum", "migration", "central"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDFS(w, dsm.MutNone, DFSOpts{MaxSchedules: budget})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violating != nil {
			t.Fatalf("%s: false positive on the correct protocol: %s", name, rep)
		}
		t.Logf("%s", rep)
		switch name {
		case "basic":
			if !testing.Short() && rep.Schedules < 1000 {
				t.Errorf("basic: only %d schedules explored, want >= 1000", rep.Schedules)
			}
		case "sem", "barrier", "update", "migration", "central":
			if rep.Frontier != 0 {
				t.Errorf("%s: bounded space not exhausted: %d prefixes left", name, rep.Frontier)
			}
		}
	}
}

// TestSkipConversionCaughtOnEngineRows: the migration and central rows
// put those engines under the model checker, so the one mutation every
// engine honours — page bodies installed without conversion — must be
// convicted on both.
func TestSkipConversionCaughtOnEngineRows(t *testing.T) {
	for _, name := range []string{"migration", "central"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDFS(w, dsm.MutSkipConversion, DFSOpts{MaxSchedules: 200})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violating == nil {
			t.Errorf("%s: skip-conversion survived: %s", name, rep)
			continue
		}
		t.Logf("%s", rep)
	}
}

// TestCrashWorkloadCleanDFS explores crash placements around the
// ownership transfer on the unmutated protocol: wherever the owner
// dies — before, after, or between any two steps of the handoff —
// detection plus copyset recovery must leave every oracle silent.
func TestCrashWorkloadCleanDFS(t *testing.T) {
	budget := 120
	if testing.Short() {
		budget = 25
	}
	w, err := Lookup("crash")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunDFS(w, dsm.MutNone, DFSOpts{MaxSchedules: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("false positive on the correct protocol under crash injection: %s", rep)
	}
	t.Logf("%s", rep)
}

// TestRandomClean fuzzes the unmutated "basic" workload.
func TestRandomClean(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 30
	}
	w, _ := Lookup("basic")
	rep, err := RunRandom(w, dsm.MutNone, RandomOpts{Runs: runs, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("false positive on the correct protocol: %s", rep)
	}
	if rep.Schedules < runs/4 {
		t.Errorf("only %d distinct schedules in %d walks — chooser not randomizing?", rep.Schedules, runs)
	}
}

// TestDelayBoundedClean sweeps small perturbations of the default
// schedule on the unmutated "basic" workload.
func TestDelayBoundedClean(t *testing.T) {
	w, _ := Lookup("basic")
	rep, err := RunDelayBounded(w, dsm.MutNone, DelayOpts{MaxDelays: 2, MaxSchedules: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("false positive on the correct protocol: %s", rep)
	}
	if rep.Schedules < 10 {
		t.Errorf("only %d schedules within delay budget 2", rep.Schedules)
	}
}

// TestTokenRoundTrip checks the schedule-token codec, including
// trailing-default trimming.
func TestTokenRoundTrip(t *testing.T) {
	cases := []struct {
		choices []int
		want    string
	}{
		{nil, "mc1:basic:none:-"},
		{[]int{0, 0, 0}, "mc1:basic:none:-"},
		{[]int{1, 0, 2}, "mc1:basic:none:1.0.2"},
		{[]int{0, 3, 0, 0}, "mc1:basic:none:0.3"},
	}
	for _, c := range cases {
		tok := EncodeToken("basic", dsm.MutNone, c.choices)
		if tok != c.want {
			t.Errorf("EncodeToken(%v) = %q, want %q", c.choices, tok, c.want)
		}
		name, mut, choices, err := DecodeToken(tok)
		if err != nil {
			t.Fatalf("DecodeToken(%q): %v", tok, err)
		}
		if name != "basic" || mut != dsm.MutNone {
			t.Errorf("DecodeToken(%q) = %q/%s", tok, name, mut)
		}
		retok := EncodeToken(name, mut, choices)
		if retok != tok {
			t.Errorf("round trip %q -> %q", tok, retok)
		}
	}
	for _, bad := range []string{"", "mc1:basic:none", "mc0:basic:none:-", "mc1:basic:none:1.x", "mc1:basic:none:-1", "mc1:basic:wat:-"} {
		if _, _, _, err := DecodeToken(bad); err == nil {
			t.Errorf("DecodeToken(%q) accepted", bad)
		}
	}
}

// TestReplayRejectsImpossibleTokens: a token that forces an index at or
// beyond a choice point's width, or more choices than the run reaches,
// names no run of the workload. Replay must say where, not replay some
// other schedule and report its outcome.
func TestReplayRejectsImpossibleTokens(t *testing.T) {
	base, err := Replay("mc1:ring:none:-", 0)
	if err != nil {
		t.Fatal(err)
	}
	n, w0 := len(base.Choices), base.Widths[0]
	if _, err := Replay(fmt.Sprintf("mc1:ring:none:%d", w0-1), 0); err != nil {
		t.Errorf("last alternative at choice point #0 rejected: %v", err)
	}
	for _, c := range []struct{ token, want string }{
		{"mc1:ring:none:7.7.7", fmt.Sprintf("forces index 7 at choice point #0, which has %d alternatives", w0)},
		{fmt.Sprintf("mc1:ring:none:%d", w0), fmt.Sprintf("forces index %d at choice point #0", w0)},
		{"mc1:ring:none:" + strings.Repeat("0.", n) + "1", fmt.Sprintf("forces %d choices, the run reaches only %d", n+1, n)},
	} {
		if res, err := Replay(c.token, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			var got string
			if res != nil {
				got = res.Outcome.String()
			}
			t.Errorf("Replay(%s) = %s, %v; want an error containing %q", c.token, got, err, c.want)
		}
	}
}

// TestKillSuite is the headline guarantee: every hand-injected protocol
// mutation is detected within its bounded exploration, and the reported
// schedule token replays to a violation of the same class. Short mode
// samples one mutation per oracle family to keep `go test -short` fast.
func TestKillSuite(t *testing.T) {
	opts := KillOpts{MaxSchedules: 200}
	if testing.Short() {
		opts.Only = []dsm.Mutation{dsm.MutSkipInvalidation, dsm.MutSkipConversion, dsm.MutUnsequencedUpdate}
	}
	rs, err := RunKillSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !r.Killed {
			t.Errorf("mutation %s survived %d schedules on %s", r.Mutation, r.Schedules, r.Workload)
			continue
		}
		t.Logf("killed %s on %s after %d schedule(s): %s: %s", r.Mutation, r.Workload, r.Schedules, r.Outcome, r.Detail)
		rep, err := Replay(r.Token, 0)
		if err != nil {
			t.Errorf("replay %q: %v", r.Token, err)
			continue
		}
		if rep.Outcome != r.Outcome || rep.Detail != r.Detail {
			t.Errorf("replay of %q diverged: got %s (%s), want %s (%s)",
				r.Token, rep.Outcome, rep.Detail, r.Outcome, r.Detail)
		}
		if len(rep.Transcript) == 0 {
			t.Errorf("replay of %q produced no transcript", r.Token)
		}
	}
	if !testing.Short() {
		txt := FormatKillResults(rs)
		if !strings.Contains(txt, "14/14 mutations killed") {
			t.Errorf("kill summary:\n%s", txt)
		}
	}
}

// TestMutationsNotKilledOnWrongOracle guards the kill-plan reasoning:
// drop-copyset must genuinely be invisible to the 2-host "basic"
// workload (the documented reason it needs "ring"). If this starts
// failing, the analysis in killPlan is stale — update it, don't delete
// the test.
func TestDropCopysetInvisibleOnBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded exploration; skipped in short mode")
	}
	w, _ := Lookup("basic")
	rep, err := RunDFS(w, dsm.MutDropCopyset, DFSOpts{MaxSchedules: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Errorf("drop-copyset now visible on basic (%s); move its kill plan off ring", rep)
	}
}

// lostUpdateProbe is a three-host quorum program no registered workload
// has: workers on hosts 0 and 1 each write one Int32 and V a semaphore;
// main on host 2 does P twice and reads both words. The semaphore is
// not in the trace, so only the execution's real-time order tells the
// oracle that both writes ended before the reads began. Main returns no
// verdict of its own, so the probe measures the oracle alone.
func lostUpdateProbe(samePage bool) *cluster.Workload {
	return &cluster.Workload{
		Name:   "lost-update-probe",
		Kinds:  []arch.Kind{arch.Sun, arch.Firefly, arch.Sun},
		Tune:   func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyQuorum },
		Define: func(c *cluster.Cluster) { c.DefineSemaphore(semDone, 2, 0) },
		Main: func(p *sim.Proc, c *cluster.Cluster) error {
			h2 := c.Hosts[2]
			x, err := h2.DSM.Alloc(p, conv.Int32, pageInts)
			if err != nil {
				return err
			}
			y := x + 4
			if !samePage {
				if y, err = h2.DSM.Alloc(p, conv.Int32, pageInts); err != nil {
					return err
				}
			}
			for w, addr := range []dsm.Addr{x, y} {
				host := c.Hosts[w]
				c.K.Spawn(fmt.Sprintf("probe%d", w), func(p *sim.Proc) {
					host.DSM.WriteInt32(p, addr, int32(w+1))
					host.Sync.V(p, semDone)
				})
			}
			h2.Sync.P(p, semDone)
			h2.Sync.P(p, semDone)
			h2.DSM.ReadInt32(p, x)
			h2.DSM.ReadInt32(p, y)
			return nil
		},
	}
}

// TestLostUpdateProbePinned pins what the SC oracle sees of the probe
// now that accesses are stamped with the dispatch ordinal. On one page
// the quorum engine loses a sub-page update (its register is the whole
// page, so the higher tag's image erases the other writer's word) and
// the very first DFS schedule is convicted; this row is expected to
// fail until replicas merge concurrent sub-page writes, and then flips
// to clean. On two pages the probe
// must stay clean.
func TestLostUpdateProbePinned(t *testing.T) {
	budget := 1500
	if testing.Short() {
		budget = 300
	}
	for _, tc := range []struct {
		name      string
		samePage  bool
		violation bool
	}{
		{"same-page", true, true},
		{"two-pages", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunDFS(lostUpdateProbe(tc.samePage), dsm.MutNone, DFSOpts{MaxSchedules: budget})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.violation && (rep.Violating == nil || rep.Violating.Outcome != cluster.SCViolation || rep.Schedules != 1):
				t.Errorf("want an sc-violation at schedule 1 (the sub-page lost update); got %s", rep)
			case !tc.violation && rep.Violating != nil:
				t.Errorf("false positive: %s", rep)
			}
			t.Logf("%s", rep)
		})
	}
}
