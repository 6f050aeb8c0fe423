// Package mc is a stateless model checker for the Mermaid DSM protocol.
//
// It runs small, fully deterministic DSM workloads inside the simulator
// (internal/sim + internal/netsim) while controlling every scheduling
// choice point through the kernel's Chooser hook: whenever more than one
// live event — a message delivery, a fault-service wakeup, a timer — is
// eligible at the current virtual instant, the chooser decides which
// runs first. A complete run is therefore a pure function of the
// sequence of choices made, so the checker explores the schedule space
// by re-running the whole workload with different forced choice
// sequences (the CHESS/dBug "stateless" approach) and replays any
// violation bit-identically from its recorded schedule.
//
// Every run is judged by the PR 1 oracles: the MRSW protocol invariant
// checker (dsm.InvariantChecker) in record mode, the offline sequential
// consistency checker (internal/sctrace) over the run's access trace,
// plus protocol panics, deadlock (event queue drained before the
// workload finished) and livelock (step budget exhausted — e.g. endless
// retransmission) detection and the workload's own final assertions.
package mc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// Result is the record of one executed run.
type Result struct {
	// Verdict is the judgment: Outcome, the Detail explaining a non-OK
	// one, and Steps, the number of kernel events dispatched.
	cluster.Verdict
	// Choices is the schedule: the index picked at each choice point.
	// Replaying the same workload+mutation with these choices forced
	// reproduces the run exactly.
	Choices []int
	// Widths is the number of alternatives at each choice point.
	Widths []int
	// Hashes is the cluster state fingerprint at each choice point the
	// strategy compares: nil unless the strategy prunes, otherwise one
	// entry per choice point, zero inside the forced prefix (a replayed
	// prefix was fingerprinted by the run that discovered it) and at or
	// beyond the DFS depth cap, where RunDFS — the only reader — never
	// looks.
	Hashes []uint64
	// Now is the virtual time when the run ended.
	Now sim.Time
	// Transcript lists the alternatives and pick at each choice point
	// (only collected during replay).
	Transcript []string
}

// execOpts parameterizes one run.
type execOpts struct {
	// forced is the schedule prefix to force; beyond it the chooser
	// takes the default (index 0) unless rng is set.
	forced []int
	// rng, when non-nil, picks uniformly beyond the forced prefix.
	rng *rand.Rand
	// maxSteps bounds dispatched events (livelock detection).
	maxSteps int
	// hashes collects the state fingerprint at choice points beyond
	// the forced prefix and, when hashDepth is positive, below it.
	hashes    bool
	hashDepth int
	// transcript collects human-readable choice-point lines.
	transcript bool
}

// DefaultMaxSteps bounds one run's dispatched events. The largest
// healthy workload run dispatches a few thousand events; a mutation
// that livelocks the protocol (endless retransmission) exceeds any
// budget, so the exact value only affects how fast that is reported.
const DefaultMaxSteps = 200_000

// execute builds a fresh trial of the workload with the mutation
// injected — on the model checker's base config: the flattened cost
// model (mcParams), seed 1, MRSW under the fixed directory — and runs it
// under the given schedule control.
func execute(w *cluster.Workload, mut dsm.Mutation, o execOpts) (*Result, error) {
	params := mcParams()
	t, err := w.Trial(cluster.Config{
		PageSize:  workloadPageSize,
		SpaceSize: workloadSpaceSize,
		Params:    &params,
		Seed:      1,
		Mutation:  mut,
	})
	if err != nil {
		return nil, fmt.Errorf("mc: building %s: %w", w.Name, err)
	}
	c := t.C
	// Reclaim the trial's goroutines: an exploration executes thousands
	// of runs, each leaving handlers and workers parked.
	defer c.Close()

	ch := &runChooser{forced: o.forced, rng: o.rng, transcript: o.transcript, hashDepth: o.hashDepth}
	if o.hashes {
		ch.hashFn = func(n int, label func(int) string) uint64 { return stateHash(c, n, label) }
	}
	c.K.SetChooser(ch)

	if o.maxSteps <= 0 {
		o.maxSteps = DefaultMaxSteps
	}
	return &Result{
		Verdict:    t.Drive("mc-main", o.maxSteps, ""),
		Choices:    ch.choices,
		Widths:     ch.widths,
		Hashes:     ch.hashes,
		Now:        c.K.Now(),
		Transcript: ch.lines,
	}, nil
}

// runChooser resolves kernel choice points from a forced prefix, then a
// fixed default (or a seeded random walk), recording everything needed
// to replay or extend the schedule.
type runChooser struct {
	forced     []int
	rng        *rand.Rand
	transcript bool

	choices []int
	widths  []int
	hashes  []uint64
	lines   []string
	// hashFn, when set, fingerprints the choice points the strategy will
	// read: index ≥ len(forced) and, with hashDepth > 0, < hashDepth.
	hashFn    func(n int, label func(int) string) uint64
	hashDepth int
}

// Choose implements sim.Chooser.
func (c *runChooser) Choose(now sim.Time, n int, label func(i int) string) int {
	i := len(c.choices)
	pick := 0
	switch {
	case i < len(c.forced):
		pick = c.forced[i]
		if pick < 0 || pick >= n {
			// Only a replay token can force an index that does not
			// exist (the strategies extend observed widths); clamping
			// finishes the run, and Replay rejects it afterwards.
			pick = n - 1
		}
	case c.rng != nil:
		pick = c.rng.Intn(n)
	}
	c.choices = append(c.choices, pick)
	c.widths = append(c.widths, n)
	if c.hashFn != nil {
		var h uint64
		if i >= len(c.forced) && (c.hashDepth <= 0 || i < c.hashDepth) {
			h = c.hashFn(n, label)
		}
		c.hashes = append(c.hashes, h)
	}
	if c.transcript {
		alts := make([]string, n)
		for j := 0; j < n; j++ {
			alts[j] = label(j)
		}
		marker := alts[pick]
		c.lines = append(c.lines, fmt.Sprintf("#%-3d t=%-12v pick %d=%s  of [%s]",
			i, now, pick, marker, strings.Join(alts, ", ")))
	}
	return pick
}

// stateHash fingerprints the cluster's protocol state at a choice
// point: every host's DSM tables and page contents, every host's
// synchronization state, the count of live pending events, and the
// labels of the eligible alternatives. Virtual time is deliberately
// excluded — two schedules reaching the same tables, page contents and
// pending work at different clock readings are equivalent for protocol
// correctness, and folding the clock in would defeat pruning entirely.
// The fingerprint is a pruning heuristic, not a soundness proof: a
// 64-bit collision or an unhashed distinction could merge states that
// differ, which bounded exploration tolerates.
func stateHash(c *cluster.Cluster, n int, label func(int) string) uint64 {
	h := fnv.New64a()
	c.WriteStateHash(h)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(c.K.LivePending()))
	h.Write(b[:])
	for j := 0; j < n; j++ {
		h.Write([]byte(label(j)))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
