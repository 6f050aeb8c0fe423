package mc

// Exploration strategies. All three are stateless: every probe re-runs
// the whole workload from scratch under a forced schedule prefix, so a
// strategy is just a policy for which prefixes to try next.
//
//   - DFS systematically branches at every choice point reached, with
//     optional state-fingerprint pruning of already-seen frontiers.
//   - Random walks re-run with seeded uniform choices — cheap, shallow
//     coverage of long schedules DFS would take ages to reach.
//   - Delay-bounded sweeps order schedules by how far they deviate from
//     the default (the sum of deferred-event indices), the classic
//     small-perturbation heuristic: most protocol bugs need only a few
//     out-of-order deliveries.

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/dsm"
)

// Report summarizes one exploration.
type Report struct {
	// Workload, Mutation, Strategy identify what ran.
	Workload string
	Mutation dsm.Mutation
	Strategy string
	// Schedules counts distinct schedules executed.
	Schedules int
	// Pruned counts branch extensions skipped because the state
	// fingerprint at their branching point had been seen before.
	Pruned int
	// Frontier counts prefixes still unexplored when the run stopped
	// (budget exhausted); zero means the bounded space was exhausted.
	Frontier int
	// MaxPoints is the most choice points any single run hit.
	MaxPoints int
	// TotalSteps sums dispatched events across all runs.
	TotalSteps int
	// Violating is the first violating run found, nil if none; Token
	// is its replayable schedule string.
	Violating *Result
	Token     string
}

// String renders the report as the one-line summary the CLI prints.
func (r *Report) String() string {
	s := fmt.Sprintf("workload=%s mutation=%s strategy=%s schedules=%d pruned=%d frontier=%d max-points=%d steps=%d",
		r.Workload, r.Mutation, r.Strategy, r.Schedules, r.Pruned, r.Frontier, r.MaxPoints, r.TotalSteps)
	if r.Violating == nil {
		return s + " → no violations"
	}
	return fmt.Sprintf("%s → %s: %s\n  replay: %s", s, r.Violating.Outcome, r.Violating.Detail, r.Token)
}

// DFSOpts bounds an exhaustive exploration.
type DFSOpts struct {
	// MaxSchedules caps executed runs (0 = 2000).
	MaxSchedules int
	// MaxSteps caps events per run (0 = DefaultMaxSteps).
	MaxSteps int
	// MaxDepth, when positive, only branches at the first MaxDepth
	// choice points of each run (a depth cap for CI smoke runs).
	MaxDepth int
	// NoPrune disables state-fingerprint pruning.
	NoPrune bool
}

// RunDFS explores schedules depth-first: execute a forced prefix with
// the default schedule beyond it, then branch into every untried
// alternative at every choice point at or beyond the prefix. Each
// probed prefix ends in a non-default choice, so every executed
// schedule is distinct by construction. With pruning on, branching
// points whose state fingerprint was already expanded are skipped.
func RunDFS(w *cluster.Workload, mut dsm.Mutation, o DFSOpts) (*Report, error) {
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 2000
	}
	rep := &Report{Workload: w.Name, Mutation: mut, Strategy: "dfs"}
	seen := make(map[uint64]struct{})
	stack := [][]int{nil} // LIFO: depth-first
	for len(stack) > 0 && rep.Schedules < o.MaxSchedules {
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res, err := execute(w, mut, execOpts{forced: prefix, maxSteps: o.MaxSteps, hashes: !o.NoPrune, hashDepth: o.MaxDepth})
		if err != nil {
			return nil, err
		}
		rep.Schedules++
		rep.TotalSteps += res.Steps
		if len(res.Choices) > rep.MaxPoints {
			rep.MaxPoints = len(res.Choices)
		}
		if res.Outcome != cluster.OK {
			rep.Violating = res
			rep.Token = EncodeToken(w.Name, mut, res.Choices)
			rep.Frontier = len(stack)
			return rep, nil
		}
		limit := len(res.Choices)
		if o.MaxDepth > 0 && limit > o.MaxDepth {
			limit = o.MaxDepth
		}
		for i := len(prefix); i < limit; i++ {
			if !o.NoPrune {
				h := res.Hashes[i]
				if _, dup := seen[h]; dup {
					rep.Pruned += res.Widths[i] - 1
					continue
				}
				seen[h] = struct{}{}
			}
			for a := res.Widths[i] - 1; a >= 1; a-- {
				ext := make([]int, i+1)
				copy(ext, res.Choices[:i])
				ext[i] = a
				stack = append(stack, ext)
			}
		}
	}
	rep.Frontier = len(stack)
	return rep, nil
}

// RandomOpts bounds a random-walk fuzzing session.
type RandomOpts struct {
	// Runs is the number of walks (0 = 500).
	Runs int
	// Seed seeds walk r with Seed+r, so a session is reproducible and
	// any single walk can be re-run — though violations are replayed
	// via their schedule token, not their seed.
	Seed int64
	// MaxSteps caps events per run (0 = DefaultMaxSteps).
	MaxSteps int
}

// RunRandom fuzzes schedules with seeded uniform choices at every
// choice point. Schedules counts distinct choice sequences observed
// (collisions are likely on workloads with few choice points).
func RunRandom(w *cluster.Workload, mut dsm.Mutation, o RandomOpts) (*Report, error) {
	if o.Runs <= 0 {
		o.Runs = 500
	}
	rep := &Report{Workload: w.Name, Mutation: mut, Strategy: "random"}
	distinct := make(map[string]struct{})
	for r := 0; r < o.Runs; r++ {
		rng := rand.New(rand.NewSource(o.Seed + int64(r)))
		res, err := execute(w, mut, execOpts{rng: rng, maxSteps: o.MaxSteps})
		if err != nil {
			return nil, err
		}
		distinct[EncodeToken(w.Name, mut, res.Choices)] = struct{}{}
		rep.TotalSteps += res.Steps
		if len(res.Choices) > rep.MaxPoints {
			rep.MaxPoints = len(res.Choices)
		}
		rep.Schedules = len(distinct)
		if res.Outcome != cluster.OK {
			rep.Violating = res
			rep.Token = EncodeToken(w.Name, mut, res.Choices)
			return rep, nil
		}
	}
	return rep, nil
}

// DelayOpts bounds a delay-bounded sweep.
type DelayOpts struct {
	// MaxDelays is the deviation budget: the sum of forced choice
	// indices (picking alternative a defers a earlier events, costing
	// a). 0 = 2.
	MaxDelays int
	// MaxSchedules caps executed runs (0 = 2000).
	MaxSchedules int
	// MaxSteps caps events per run (0 = DefaultMaxSteps).
	MaxSteps int
}

// RunDelayBounded sweeps all schedules within a deviation budget of the
// default schedule, cheapest deviations first (FIFO frontier). With
// budget d it visits exactly the schedules whose choice indices sum to
// ≤ d — the delay-bounded heuristic: most ordering bugs need only a
// couple of deferred deliveries.
func RunDelayBounded(w *cluster.Workload, mut dsm.Mutation, o DelayOpts) (*Report, error) {
	if o.MaxDelays <= 0 {
		o.MaxDelays = 2
	}
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 2000
	}
	rep := &Report{Workload: w.Name, Mutation: mut, Strategy: "delay"}
	queue := [][]int{nil} // FIFO: smallest deviation first
	for len(queue) > 0 && rep.Schedules < o.MaxSchedules {
		prefix := queue[0]
		queue = queue[1:]
		res, err := execute(w, mut, execOpts{forced: prefix, maxSteps: o.MaxSteps})
		if err != nil {
			return nil, err
		}
		rep.Schedules++
		rep.TotalSteps += res.Steps
		if len(res.Choices) > rep.MaxPoints {
			rep.MaxPoints = len(res.Choices)
		}
		if res.Outcome != cluster.OK {
			rep.Violating = res
			rep.Token = EncodeToken(w.Name, mut, res.Choices)
			rep.Frontier = len(queue)
			return rep, nil
		}
		spent := 0
		for _, c := range prefix {
			spent += c
		}
		for i := len(prefix); i < len(res.Choices); i++ {
			for a := 1; a < res.Widths[i] && spent+a <= o.MaxDelays; a++ {
				ext := make([]int, i+1)
				copy(ext, res.Choices[:i])
				ext[i] = a
				queue = append(queue, ext)
			}
		}
	}
	rep.Frontier = len(queue)
	return rep, nil
}
