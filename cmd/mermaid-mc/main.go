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
	"flag"
	"fmt"
	"os"

	"repro/internal/dsm"
	"repro/internal/mc"
	"repro/internal/namelist"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list         = flag.Bool("list", false, "list workloads and mutations, then exit")
		workload     = flag.String("workload", "basic", "workloads to explore: a name, a comma list, or all (see -list)")
		strategy     = flag.String("strategy", "dfs", "exploration strategy: dfs, random, or delay")
		mutation     = flag.String("mutation", "none", "protocol mutation to inject (see -list)")
		maxSchedules = flag.Int("max-schedules", 2000, "schedule budget for dfs/delay strategies")
		maxSteps     = flag.Int("max-steps", 0, "per-run event budget (0 = default; exceeding it is a livelock)")
		depth        = flag.Int("depth", 0, "dfs: only branch at the first N choice points (0 = unbounded)")
		noPrune      = flag.Bool("no-prune", false, "dfs: disable state-fingerprint pruning")
		runs         = flag.Int("runs", 500, "random: number of walks")
		seed         = flag.Int64("seed", 1, "random: base seed (walk r uses seed+r)")
		delays       = flag.Int("delays", 2, "delay: deviation budget (sum of deferred-event indices)")
		replay       = flag.String("replay", "", "replay a schedule token and print its transcript")
		kill         = flag.Bool("kill", false, "run the full mutation-kill suite")
		killBudget   = flag.Int("kill-budget", 200, "kill: schedule budget per mutation")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range mc.All() {
			fmt.Printf("  %-8s %s\n", w.Name, w.Desc)
		}
		fmt.Println("mutations:")
		for _, m := range dsm.Mutations() {
			fmt.Printf("  %s\n", m)
		}
		return 0
	}

	if *replay == "" {
		*replay = os.Getenv("MERMAID_MC_SEED")
	}
	if *replay != "" {
		res, err := mc.Replay(*replay, *maxSteps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mermaid-mc:", err)
			return 1
		}
		for _, line := range res.Transcript {
			fmt.Println(line)
		}
		fmt.Printf("outcome: %s", res.Outcome)
		if res.Detail != "" {
			fmt.Printf(" — %s", res.Detail)
		}
		fmt.Printf(" (%d steps, %d choice points, t=%v)\n", res.Steps, len(res.Choices), res.Now)
		if res.Outcome != mc.OK {
			return 2
		}
		return 0
	}

	if *kill {
		rs, err := mc.RunKillSuite(mc.KillOpts{MaxSchedules: *killBudget, MaxSteps: *maxSteps})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mermaid-mc:", err)
			return 1
		}
		fmt.Print(mc.FormatKillResults(rs))
		for _, r := range rs {
			if !r.Killed {
				return 2
			}
		}
		return 0
	}

	workloads, err := namelist.Resolve(*workload, mc.All(), mc.Lookup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mermaid-mc:", err)
		return 1
	}
	mut, err := dsm.ParseMutation(*mutation)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mermaid-mc:", err)
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
			fmt.Fprintf(os.Stderr, "mermaid-mc: unknown strategy %q (dfs, random, delay)\n", *strategy)
			return 1
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mermaid-mc:", err)
			return 1
		}
		fmt.Println(rep)

		// The verdict: a correct protocol must survive every schedule; a
		// mutated one must not survive the exploration.
		if mut == dsm.MutNone && rep.Violating != nil {
			fmt.Fprintf(os.Stderr, "mermaid-mc: %s: violation on the unmutated protocol\n", w.Name)
			code = 2
		}
		if mut != dsm.MutNone && rep.Violating == nil {
			fmt.Fprintf(os.Stderr, "mermaid-mc: %s: mutation %s not detected within budget\n", w.Name, mut)
			code = 2
		}
	}
	return code
}
