package chaos

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestPlanGeneration checks the generator's contract: deterministic
// from the seed, every window inside the injection horizon, host 0
// never crashed or cut off, and each class injecting what it names.
func TestPlanGeneration(t *testing.T) {
	for _, class := range Classes() {
		for seed := int64(1); seed <= 20; seed++ {
			fp := GeneratePlan(class, seed, 3)
			if again := GeneratePlan(class, seed, 3); !reflect.DeepEqual(fp, again) {
				t.Fatalf("%s seed %d: plan generation not deterministic", class, seed)
			}
			horizon := sim.Time(0).Add(injectHorizon)
			var windows []netsim.Window
			for _, b := range fp.Loss {
				windows = append(windows, b.Window)
			}
			for _, b := range fp.Duplicate {
				windows = append(windows, b.Window)
			}
			for _, b := range fp.Corrupt {
				windows = append(windows, b.Window)
			}
			for _, pt := range fp.Partitions {
				windows = append(windows, pt.Window)
			}
			for _, b := range windows {
				if b.Until <= b.From || b.From < 0 || b.Until > horizon {
					t.Errorf("%s seed %d: window [%v, %v) outside (0, %v]", class, seed, b.From, b.Until, horizon)
				}
			}
			for _, pt := range fp.Partitions {
				for _, h := range pt.Group {
					if h == 0 {
						t.Errorf("%s seed %d: partition cuts host 0", class, seed)
					}
				}
				if pt.Until.Sub(pt.From) >= sim.Duration(2_000_000_000) {
					t.Errorf("%s seed %d: partition [%v, %v) long enough to fake a death", class, seed, pt.From, pt.Until)
				}
			}
			for _, ce := range fp.Crashes {
				if ce.Host == 0 {
					t.Errorf("%s seed %d: plan crashes host 0", class, seed)
				}
			}
			switch class {
			case ClassDrop:
				if len(fp.Loss) == 0 || len(fp.Crashes) != 0 || len(fp.Partitions) != 0 {
					t.Errorf("drop seed %d: wrong fault mix: %+v", seed, fp)
				}
			case ClassPartition:
				if len(fp.Partitions) == 0 || len(fp.Crashes) != 0 {
					t.Errorf("partition seed %d: wrong fault mix: %+v", seed, fp)
				}
			case ClassCrash:
				if len(fp.Crashes) != 1 {
					t.Errorf("crash seed %d: %d crashes, want 1", seed, len(fp.Crashes))
				}
			case ClassMix:
				if len(fp.Loss) == 0 || len(fp.Partitions) == 0 || len(fp.Crashes) != 1 {
					t.Errorf("mix seed %d: wrong fault mix: %+v", seed, fp)
				}
			}
		}
	}
}

// TestSmokeSeedsClean is the committed smoke matrix: every workload ×
// every class across the CI seeds must pass every oracle. Seed 1 of
// the grid is exactly what `make chaos-smoke` runs (one process,
// -workload=all -class=all); a failure here is either a protocol bug
// (the token reproduces it) or a workload assertion that is stricter
// than crash-stop semantics allow.
func TestSmokeSeedsClean(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, w := range All() {
		for _, class := range Classes() {
			for _, seed := range seeds {
				res, err := Run(w, class, seed, Opts{})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", w.Name, class, seed, err)
				}
				if res.Outcome != cluster.OK {
					t.Errorf("%s: %s: %s", res.Token, res.Outcome, res.Detail)
				}
			}
		}
	}
}

// TestCrashRunsExerciseRecovery makes sure the smoke matrix is not
// vacuously green: across the crash-class seeds, at least one run must
// actually recover a page (the copyset path) — otherwise the crashes
// are landing where nothing interesting happens and the seeds should
// be rotated.
func TestCrashRunsExerciseRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full seed sweep")
	}
	recovered := 0
	for _, w := range All() {
		for seed := int64(1); seed <= 3; seed++ {
			res, err := Run(w, ClassCrash, seed, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			recovered += res.PagesRecovered
			if res.PagesRecovered > 0 && res.RecoveryLatency <= 0 {
				t.Errorf("%s: recovered %d page(s) but reports no recovery latency", res.Token, res.PagesRecovered)
			}
		}
	}
	if recovered == 0 {
		t.Error("no crash-class smoke seed recovered a single page — rotate the seeds")
	}
}

// TestRunsAreDeterministic is the replay guarantee: the same token run
// twice produces identical outcomes and state fingerprints, for a
// crash run and a message-fault run.
func TestRunsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		workload string
		class    Class
		seed     int64
	}{
		{"slots", ClassCrash, 5},
		{"counter", ClassDrop, 9},
		{"handoff", ClassMix, 2},
	} {
		w, err := Lookup(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(w, tc.class, tc.seed, Opts{}); err != nil {
			t.Error(err)
		}
	}
}

// TestTokenRoundTrip checks the codec and Replay resolution.
func TestTokenRoundTrip(t *testing.T) {
	tok := EncodeToken("slots", ClassCrash, 42)
	if tok != "chaos1:slots:crash:42" {
		t.Fatalf("EncodeToken = %q", tok)
	}
	name, class, seed, err := DecodeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if name != "slots" || class != ClassCrash || seed != 42 {
		t.Fatalf("DecodeToken = %q/%s/%d", name, class, seed)
	}
	for _, bad := range []string{
		"", "chaos1:slots:crash", "chaos0:slots:crash:1",
		"chaos1:nope:crash:1", "chaos1:slots:nope:1", "chaos1:slots:crash:x",
	} {
		if _, _, _, err := DecodeToken(bad); err == nil {
			t.Errorf("DecodeToken(%q) accepted", bad)
		}
	}
}

// TestReplayReproducesRun replays a token and compares fingerprints
// against a direct run — the CLI -replay path, end to end.
func TestReplayReproducesRun(t *testing.T) {
	w, err := Lookup("handoff")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(w, ClassCrash, 4, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(direct.Token, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Fingerprint != direct.Fingerprint || replayed.Outcome != direct.Outcome {
		t.Fatalf("replay diverged:\n direct: %s %s\n replay: %s %s",
			direct.Outcome, direct.Fingerprint, replayed.Outcome, replayed.Fingerprint)
	}
	if len(replayed.Plan) == 0 {
		t.Error("replay carries no fault-plan transcript")
	}
}

// TestChaosCatchesSkipInvalidation proves the oracle pipeline has
// teeth: a protocol with invalidations removed must not survive a
// message-fault campaign (the invariant checker flags the stale copy
// regardless of workload-level tolerance).
func TestChaosCatchesSkipInvalidation(t *testing.T) {
	w, err := Lookup("counter")
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for seed := int64(1); seed <= 3 && !caught; seed++ {
		res, err := Run(w, ClassDrop, seed, Opts{Mut: dsm.MutSkipInvalidation})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != cluster.OK {
			caught = true
		}
	}
	if !caught {
		t.Fatal("skip-invalidation survived 3 drop-class campaigns — the oracles are blind")
	}
}

// TestChaosCatchesLostDiff: with release pushes dropped, the home
// image never advances, and the rc workload's exact final assertion —
// every completed interval must be visible at home once its writer
// finished — reports it on any seed whose workers all survive.
func TestChaosCatchesLostDiff(t *testing.T) {
	w, err := Lookup("rc")
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for seed := int64(1); seed <= 3 && !caught; seed++ {
		res, err := Run(w, ClassDrop, seed, Opts{Mut: dsm.MutLostDiff})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != cluster.OK {
			caught = true
		}
	}
	if !caught {
		t.Fatal("lost-diff survived 3 drop-class campaigns — the rc workload tolerates too much")
	}
}

// TestChaosCatchesForgetRecovery: with the copyset re-own removed, a
// recoverable page stays unreadable after its owner's crash, and the
// coordinator's final read — which never tolerates ErrHostDown —
// reports it.
func TestChaosCatchesForgetRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign; skipped in short mode")
	}
	w, err := Lookup("slots")
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for seed := int64(1); seed <= 5 && !caught; seed++ {
		res, err := Run(w, ClassCrash, seed, Opts{Mut: dsm.MutForgetRecovery})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != cluster.OK {
			caught = true
		}
	}
	if !caught {
		t.Fatal("forget-recovery survived 5 crash-class campaigns — the workloads tolerate too much")
	}
}
