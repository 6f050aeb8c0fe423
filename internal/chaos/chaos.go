// Package chaos is the randomized fault-injection harness for the
// Mermaid DSM cluster. Where internal/mc explores *schedules* of a
// fault-free run with a controlled chooser, chaos explores *fault
// placements*: each run derives a scripted fault plan (burst loss,
// duplication, corruption, partitions, a host crash) from a seed, runs
// a small fault-tolerant workload against it under the calibrated cost
// model, and judges the outcome with the same oracles the model
// checker uses — the MRSW protocol invariant checker, the offline
// sequential-consistency trace check, panic capture and hang
// detection — plus the workload's own final assertions.
//
// Every run is a pure function of (workload, class, seed): the fault
// plan is regenerated from the seed, the kernel is seeded with it, and
// no wall-clock input exists anywhere in the stack, so the replay
// token `chaos1:<workload>:<class>:<seed>` reproduces any violation
// bit-identically. The harness double-checks that claim on demand by
// running twice and comparing state fingerprints (Verify).
package chaos

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Result records one executed chaos run.
type Result struct {
	// Token replays this run exactly (see Replay).
	Token string
	// Verdict is the judgment: Outcome, the Detail explaining a non-OK
	// one, and Steps, the number of kernel events dispatched.
	cluster.Verdict
	// Plan lists the injected faults, human-readable.
	Plan []string
	// Elapsed is the virtual time the run took.
	Elapsed sim.Duration
	// Fingerprint digests the final cluster state plus fault/protocol
	// counters; two runs of the same token must produce equal
	// fingerprints (determinism), and any drift is a bug.
	Fingerprint string
	// PagesRecovered/PagesLost total the cluster's recovery outcomes.
	PagesRecovered int
	PagesLost      int
	// RecoveryLatency is the virtual time from the first scripted crash
	// to the first completed page recovery (0 when no crash happened or
	// nothing needed recovering).
	RecoveryLatency sim.Duration
}

// Opts parameterizes a run.
type Opts struct {
	// MaxSteps bounds dispatched kernel events (0 = DefaultMaxSteps).
	// Exhausting it is reported as Hung.
	MaxSteps int
	// Mut injects a deliberate DSM protocol bug cluster-wide — used by
	// the harness's own tests to prove the oracles have teeth.
	Mut dsm.Mutation
}

// DefaultMaxSteps bounds one run's dispatched events. A healthy run
// under the calibrated cost model dispatches a few tens of thousands
// of events across its ~7 virtual seconds; the budget is an order of
// magnitude above that.
const DefaultMaxSteps = 500_000

// traceLog watches the cluster's DSM trace stream for the first page
// recovery; every count a run reports comes from dsm.Stats.
type traceLog struct {
	firstRecover sim.Time
	recovered    bool
}

func (tl *traceLog) observe(ev dsm.TraceEvent) {
	if ev.Event == "recover" && !tl.recovered {
		tl.firstRecover, tl.recovered = ev.Time, true
	}
}

// Run executes one chaos run: generate the plan from the seed, build a
// fresh trial of the workload on the chaos base config — calibrated
// cost model, the kernel seeded with the run's seed, central manager on
// never-crashed host 0, failure detection, the fault plan and the
// recovery trace tap — drive it to completion, judge it.
func Run(w *cluster.Workload, class Class, seed int64, o Opts) (*Result, error) {
	plan := GeneratePlan(class, seed, len(w.Kinds))
	tl := &traceLog{}
	t, err := w.Trial(cluster.Config{
		PageSize:         chaosPageSize,
		SpaceSize:        chaosSpaceSize,
		Seed:             seed,
		Directory:        dsm.DirCentral,
		FailureDetection: true,
		FaultPlan:        plan,
		Trace:            tl.observe,
		Mutation:         o.Mut,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: building %s: %w", w.Name, err)
	}
	c := t.C
	defer c.Close()

	maxSteps := o.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	v := t.Drive("chaos-main", maxSteps, "chaos-teardown")
	if v.Outcome == cluster.Deadlock || v.Outcome == cluster.Livelock {
		v.Outcome = cluster.Hung
	}

	total := c.TotalDSMStats()
	res := &Result{
		Token:          EncodeToken(w.Name, class, seed),
		Verdict:        v,
		Plan:           renderPlan(plan),
		Elapsed:        c.K.Now().Sub(0),
		Fingerprint:    fingerprint(c, v.Steps),
		PagesRecovered: total.PagesRecovered,
		PagesLost:      total.PagesLost,
	}
	if tl.recovered && len(plan.Crashes) > 0 {
		res.RecoveryLatency = tl.firstRecover.Sub(plan.Crashes[0].At)
	}
	return res, nil
}

// Verify runs the same token twice and errors if the runs diverge in
// fingerprint, outcome or detail — the determinism guarantee behind
// replay tokens, checked end to end.
func Verify(w *cluster.Workload, class Class, seed int64, o Opts) (*Result, error) {
	a, err := Run(w, class, seed, o)
	if err != nil {
		return nil, err
	}
	b, err := Run(w, class, seed, o)
	if err != nil {
		return nil, err
	}
	if a.Fingerprint != b.Fingerprint || a.Outcome != b.Outcome || a.Detail != b.Detail {
		return a, fmt.Errorf("chaos: %s not deterministic:\n run 1: %s %s\n   %s\n run 2: %s %s\n   %s",
			a.Token, a.Outcome, a.Detail, a.Fingerprint, b.Outcome, b.Detail, b.Fingerprint)
	}
	return a, nil
}

// fingerprint digests the final protocol state of every host plus the
// run's fault and protocol counters into a comparable line.
func fingerprint(c *cluster.Cluster, steps int) string {
	h := fnv.New64a()
	c.WriteStateHash(h)
	ns := c.Net.Stats()
	ds := c.TotalDSMStats()
	return fmt.Sprintf("t=%v steps=%d state=%016x fetched=%d conv=%d recovered=%d lost=%d dropped=%d cut=%d corrupted=%d duplicated=%d toDead=%d",
		c.K.Now(), steps, h.Sum64(),
		ds.PagesFetched, ds.Conversions, ds.PagesRecovered, ds.PagesLost,
		ns.FramesDropped, ns.FramesCut, ns.FramesCorrupted, ns.FramesDuplicated, ns.FramesToDead)
}
