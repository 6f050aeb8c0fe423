// Command mermaid-mc explores the schedule space of small Mermaid DSM
// workloads with the stateless model checker (internal/mc):
//
//	go run ./cmd/mermaid-mc -list
//	go run ./cmd/mermaid-mc -workload=basic -strategy=dfs
//	go run ./cmd/mermaid-mc -workload=basic,dynamic,quorum,rc -max-schedules=1200
//	go run ./cmd/mermaid-mc -workload=basic -mutation=skip-invalidation
//	go run ./cmd/mermaid-mc -replay=mc1:basic:skip-invalidation:0.2.1
//	go run ./cmd/mermaid-mc -kill
//
// Exit status: 0 when the exploration matches expectations (no
// violation on the correct protocol; a violation found when a mutation
// was injected; every mutation killed in -kill mode), 2 when it does
// not, 1 on usage or execution errors.
//
// Any violation is reported with a schedule token; pass it back via
// -replay or the MERMAID_MC_SEED environment variable to reproduce the
// run with a transcript of every scheduling choice.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/mc"
	"repro/internal/namelist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mermaid-mc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list         = fs.Bool("list", false, "list workloads and mutations, then exit")
		workload     = fs.String("workload", "basic", "workloads to explore: a name, a comma list, or all (see -list)")
		strategy     = fs.String("strategy", "dfs", "exploration strategy: dfs, random, or delay")
		mutation     = fs.String("mutation", "none", "protocol mutation to inject (see -list)")
		maxSchedules = fs.Int("max-schedules", 2000, "schedule budget for dfs/delay strategies")
		maxSteps     = fs.Int("max-steps", 0, "per-run event budget (0 = default; exceeding it is a livelock)")
		depth        = fs.Int("depth", 0, "dfs: only branch at the first N choice points (0 = unbounded)")
		noPrune      = fs.Bool("no-prune", false, "dfs: disable state-fingerprint pruning")
		runs         = fs.Int("runs", 500, "random: number of walks")
		seed         = fs.Int64("seed", 1, "random: base seed (walk r uses seed+r)")
		delays       = fs.Int("delays", 2, "delay: deviation budget (sum of deferred-event indices)")
		replay       = fs.String("replay", "", "replay a schedule token and print its transcript")
		kill         = fs.Bool("kill", false, "run the full mutation-kill suite")
		killBudget   = fs.Int("kill-budget", 200, "kill: schedule budget per mutation")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	// A budget below its minimum would otherwise be replaced by the
	// default (or explore nothing) and exit green.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"runs", *runs, 1}, {"max-schedules", *maxSchedules, 1}, {"kill-budget", *killBudget, 1},
		{"delays", *delays, 0}, {"depth", *depth, 0}, {"max-steps", *maxSteps, 0},
	} {
		if f.val < f.min {
			fmt.Fprintf(stderr, "mermaid-mc: -%s=%d: must be at least %d\n", f.name, f.val, f.min)
			return 1
		}
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, w := range mc.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", w.Name, w.Desc)
		}
		fmt.Fprintln(stdout, "mutations:")
		for _, m := range dsm.Mutations() {
			fmt.Fprintf(stdout, "  %s\n", m)
		}
		return 0
	}

	if *replay == "" {
		*replay = os.Getenv("MERMAID_MC_SEED")
	}
	if *replay != "" {
		res, err := mc.Replay(*replay, *maxSteps)
		if err != nil {
			fmt.Fprintln(stderr, "mermaid-mc:", err)
			return 1
		}
		for _, line := range res.Transcript {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintf(stdout, "outcome: %s", res.Outcome)
		if res.Detail != "" {
			fmt.Fprintf(stdout, " — %s", res.Detail)
		}
		fmt.Fprintf(stdout, " (%d steps, %d choice points, t=%v)\n", res.Steps, len(res.Choices), res.Now)
		if res.Outcome != cluster.OK {
			return 2
		}
		return 0
	}

	if *kill {
		rs, err := mc.RunKillSuite(mc.KillOpts{MaxSchedules: *killBudget, MaxSteps: *maxSteps})
		if err != nil {
			fmt.Fprintln(stderr, "mermaid-mc:", err)
			return 1
		}
		fmt.Fprint(stdout, mc.FormatKillResults(rs))
		for _, r := range rs {
			if !r.Killed {
				return 2
			}
		}
		return 0
	}

	workloads, err := namelist.Resolve(*workload, mc.All(), mc.Lookup)
	if err != nil {
		fmt.Fprintln(stderr, "mermaid-mc:", err)
		return 1
	}
	mut, err := dsm.ParseMutation(*mutation)
	if err != nil {
		fmt.Fprintln(stderr, "mermaid-mc:", err)
		return 1
	}

	// Every listed workload is explored in this process; the exit status
	// is the worst verdict.
	code := 0
	for _, w := range workloads {
		var rep *mc.Report
		switch *strategy {
		case "dfs":
			rep, err = mc.RunDFS(w, mut, mc.DFSOpts{
				MaxSchedules: *maxSchedules, MaxSteps: *maxSteps, MaxDepth: *depth, NoPrune: *noPrune,
			})
		case "random":
			rep, err = mc.RunRandom(w, mut, mc.RandomOpts{Runs: *runs, Seed: *seed, MaxSteps: *maxSteps})
		case "delay":
			rep, err = mc.RunDelayBounded(w, mut, mc.DelayOpts{
				MaxDelays: *delays, MaxSchedules: *maxSchedules, MaxSteps: *maxSteps,
			})
		default:
			fmt.Fprintf(stderr, "mermaid-mc: unknown strategy %q (dfs, random, delay)\n", *strategy)
			return 1
		}
		if err != nil {
			fmt.Fprintln(stderr, "mermaid-mc:", err)
			return 1
		}
		fmt.Fprintln(stdout, rep)

		// The verdict: a correct protocol must survive every schedule; a
		// mutated one must not survive the exploration.
		if mut == dsm.MutNone && rep.Violating != nil {
			fmt.Fprintf(stderr, "mermaid-mc: %s: violation on the unmutated protocol\n", w.Name)
			code = 2
		}
		if mut != dsm.MutNone && rep.Violating == nil {
			fmt.Fprintf(stderr, "mermaid-mc: %s: mutation %s not detected within budget\n", w.Name, mut)
			code = 2
		}
	}
	return code
}
