package mc

// The mutation-kill harness: regression-proofs the checker itself. Each
// dsm.Mutation is a hand-injected protocol bug; the harness asserts the
// checker finds a violating schedule for every one of them within a
// bounded exploration. A mutation the checker cannot kill means an
// oracle or the schedule exploration has a blind spot.

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dsm"
)

// killPlan assigns each mutation the cheapest workload whose schedule
// space provably contains a violating run:
//
//   - drop-copyset needs a third party: with two hosts the un-recorded
//     reader is always the next requester or the owner of the transfer,
//     so its stale replica is consumed before it can be observed. The
//     "ring" workload's host 1 keeps a replica across host 2's write.
//   - lost-ack needs a *remote* invalidation, which "basic"'s
//     lock-protected read-modify-write never sends (the only copyset
//     member is always the requester itself); "ring"'s third-party
//     write invalidates host 1's replica remotely.
//   - unsequenced-update mutates the write-update policy's sequencer,
//     so it needs the "update" workload; forget-recovery mutates the
//     copyset re-own after an owner crash, which only the "crash"
//     workload (failure detection on, a host actually dying) reaches;
//     stale-probable-owner corrupts the dynamic directory's hint update
//     on ownership handoff, which only the "dynamic" workload runs —
//     every other mutation targets the MRSW invalidate path that
//     "basic" exercises.
//   - stale-quorum-read and split-brain-write corrupt the SC-ABD
//     engine, so they need the "quorum" workload. Both are killable
//     only because quorum operations complete at the FIRST majority:
//     the third replica legitimately lags, and the explorer picks the
//     schedule where the lagging replica is the one a mutated read
//     trusts (stale-quorum-read) or where the read's majority excludes
//     the writer whose mutated write never left home (split-brain-write).
//   - lost-diff and stale-twin-merge corrupt the lazy-release engine,
//     so they need the "rc" workload. lost-diff drops the first
//     non-empty diff of a release, which every locked-counter interval
//     exercises; stale-twin-merge only misapplies a pulled diff when
//     the puller has a live twin, which the workload stages explicitly
//     (an open write interval held across an acquire). The kills come
//     from the happens-before oracle and the exact final assertions.
var killPlan = map[dsm.Mutation]string{
	dsm.MutSkipInvalidation:   "basic",
	dsm.MutDropCopyset:        "ring",
	dsm.MutStaleOwner:         "basic",
	dsm.MutUnsequencedUpdate:  "update",
	dsm.MutLostAck:            "ring",
	dsm.MutDoubleWriterGrant:  "basic",
	dsm.MutAllocOverrun:       "basic",
	dsm.MutSkipConversion:     "basic",
	dsm.MutForgetRecovery:     "crash",
	dsm.MutStaleProbableOwner: "dynamic",
	dsm.MutStaleQuorumRead:    "quorum",
	dsm.MutSplitBrainWrite:    "quorum",
	dsm.MutLostDiff:           "rc",
	dsm.MutStaleTwinMerge:     "rc",
}

// KillResult records one mutation's fate.
type KillResult struct {
	// Mutation is the injected bug; Workload the scenario hunted in.
	Mutation dsm.Mutation
	Workload string
	// Killed reports whether a violating schedule was found; Token
	// replays it and Outcome/Detail describe how it surfaced.
	Killed  bool
	Token   string
	Outcome cluster.Outcome
	Detail  string
	// Schedules counts runs executed before the kill (or the budget).
	Schedules int
}

// KillOpts bounds the per-mutation exploration.
type KillOpts struct {
	// MaxSchedules caps DFS runs per mutation (0 = 200).
	MaxSchedules int
	// MaxSteps caps events per run (0 = DefaultMaxSteps).
	MaxSteps int
	// Only, when non-empty, restricts the suite to these mutations.
	Only []dsm.Mutation
}

// RunKillSuite hunts every mutation in the plan with a bounded DFS and
// reports each one's fate, in mutation order.
func RunKillSuite(o KillOpts) ([]KillResult, error) {
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 200
	}
	muts := o.Only
	if len(muts) == 0 {
		for _, m := range dsm.Mutations() {
			if m != dsm.MutNone {
				muts = append(muts, m)
			}
		}
	}
	var out []KillResult
	for _, m := range muts {
		wname, ok := killPlan[m]
		if !ok {
			return nil, fmt.Errorf("mc: no kill plan for mutation %s", m)
		}
		w, err := Lookup(wname)
		if err != nil {
			return nil, err
		}
		rep, err := RunDFS(w, m, DFSOpts{MaxSchedules: o.MaxSchedules, MaxSteps: o.MaxSteps})
		if err != nil {
			return nil, err
		}
		kr := KillResult{Mutation: m, Workload: wname, Schedules: rep.Schedules}
		if rep.Violating != nil {
			kr.Killed = true
			kr.Token = rep.Token
			kr.Outcome = rep.Violating.Outcome
			kr.Detail = rep.Violating.Detail
		}
		out = append(out, kr)
	}
	return out, nil
}

// FormatKillResults renders the suite outcome as the table the CLI and
// `make mc-deep` print.
func FormatKillResults(rs []KillResult) string {
	var b strings.Builder
	killed := 0
	for _, r := range rs {
		if r.Killed {
			killed++
			fmt.Fprintf(&b, "KILLED   %-19s workload=%-7s schedules=%-4d %s: %s\n",
				r.Mutation, r.Workload, r.Schedules, r.Outcome, r.Detail)
			fmt.Fprintf(&b, "         replay: %s\n", r.Token)
		} else {
			fmt.Fprintf(&b, "SURVIVED %-19s workload=%-7s schedules=%-4d (no violating schedule in budget)\n",
				r.Mutation, r.Workload, r.Schedules)
		}
	}
	fmt.Fprintf(&b, "%d/%d mutations killed\n", killed, len(rs))
	return b.String()
}
