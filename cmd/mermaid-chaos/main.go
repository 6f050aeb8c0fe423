// Command mermaid-chaos runs randomized fault-injection campaigns
// against the simulated Mermaid DSM cluster (internal/chaos):
//
//	go run ./cmd/mermaid-chaos -list
//	go run ./cmd/mermaid-chaos -workload=slots -class=crash -seed=1 -runs=10
//	go run ./cmd/mermaid-chaos -workload=counter -class=mix -seed=7 -verify
//	go run ./cmd/mermaid-chaos -workload=all -class=drop,mix -seed=1
//	go run ./cmd/mermaid-chaos -replay=chaos1:slots:crash:3
//
// Every run derives its fault schedule (burst loss, duplication,
// corruption, partitions, a host crash) from the seed, so any
// violation's token replays it bit-identically. Exit status: 0 when
// every run passed every oracle, 2 when a violation was found (its
// token is printed), 1 on usage or execution errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/namelist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mermaid-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list workloads and schedule classes, then exit")
		workload = fs.String("workload", "slots", "workloads to torment: a name, a comma list, or all (see -list)")
		class    = fs.String("class", "crash", "fault schedule classes: drop, partition, crash, mix; a comma list, or all")
		seed     = fs.Int64("seed", 1, "base seed; run i uses seed+i")
		runs     = fs.Int("runs", 1, "number of consecutive seeds to run")
		verify   = fs.Bool("verify", false, "run each seed twice and require bit-identical outcomes")
		replay   = fs.String("replay", "", "replay a chaos1:... token and print its fault plan and outcome")
		maxSteps = fs.Int("max-steps", 0, "per-run event budget (0 = default; exceeding it is reported as hung)")
		mutation = fs.String("mutation", "none", "inject a named DSM protocol bug and require the campaign to catch it (exit 2 if it survives every run)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if *maxSteps < 0 {
		// A negative budget would silently mean the default.
		fmt.Fprintf(stderr, "mermaid-chaos: -max-steps=%d: must be at least 0\n", *maxSteps)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, w := range chaos.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", w.Name, w.Desc)
		}
		fmt.Fprintln(stdout, "classes:")
		for _, c := range chaos.Classes() {
			fmt.Fprintf(stdout, "  %s\n", c)
		}
		return 0
	}

	opts := chaos.Opts{MaxSteps: *maxSteps}
	var err error
	if opts.Mut, err = dsm.ParseMutation(*mutation); err != nil {
		fmt.Fprintln(stderr, "mermaid-chaos:", err)
		return 1
	}
	if opts.Mut != dsm.MutNone && (*verify || *replay != "") {
		fmt.Fprintln(stderr, "mermaid-chaos: -mutation cannot be combined with -verify or -replay")
		return 1
	}

	if *replay != "" {
		res, err := chaos.Replay(*replay, opts)
		if err != nil {
			fmt.Fprintln(stderr, "mermaid-chaos:", err)
			return 1
		}
		fmt.Fprintln(stdout, "fault plan:")
		for _, line := range res.Plan {
			fmt.Fprintln(stdout, " ", line)
		}
		fmt.Fprintf(stdout, "outcome: %s", res.Outcome)
		if res.Detail != "" {
			fmt.Fprintf(stdout, " — %s", res.Detail)
		}
		fmt.Fprintf(stdout, "\n%s\n", res.Fingerprint)
		if res.Outcome != cluster.OK {
			return 2
		}
		return 0
	}

	workloads, err := namelist.Resolve(*workload, chaos.All(), chaos.Lookup)
	if err != nil {
		fmt.Fprintln(stderr, "mermaid-chaos:", err)
		return 1
	}
	classes, err := namelist.Resolve(*class, chaos.Classes(), chaos.ParseClass)
	if err != nil {
		fmt.Fprintln(stderr, "mermaid-chaos:", err)
		return 1
	}
	if *runs < 1 {
		// Zero campaigns would print survived=0/0 and exit green.
		fmt.Fprintf(stderr, "mermaid-chaos: -runs=%d: need at least one run\n", *runs)
		return 1
	}

	// Every workload × class cell runs in this process; the exit status
	// is the worst cell's.
	cell := sweep
	if *verify {
		cell = sweepVerified
	}
	code := 0
	for _, w := range workloads {
		for _, cl := range classes {
			c, err := cell(stdout, w, cl, *seed, *runs, opts)
			if err != nil {
				fmt.Fprintln(stderr, "mermaid-chaos:", err)
				return 1
			}
			code = max(code, c)
		}
	}
	return code
}

// sweepVerified runs each seed of one cell twice and requires
// bit-identical outcomes.
func sweepVerified(stdout io.Writer, w *cluster.Workload, cl chaos.Class, seed int64, runs int, opts chaos.Opts) (int, error) {
	code := 0
	for i := 0; i < runs; i++ {
		res, err := chaos.Verify(w, cl, seed+int64(i), opts)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "%s %s (verified deterministic)\n", res.Token, res.Outcome)
		if res.Outcome != cluster.OK {
			fmt.Fprintf(stdout, "  %s\n  replay: %s\n", res.Detail, res.Token)
			code = 2
		}
	}
	return code, nil
}

// sweep runs one cell's seed series and reports it: campaign by
// campaign, or as a kill verdict when a mutation is injected.
func sweep(stdout io.Writer, w *cluster.Workload, cl chaos.Class, seed int64, runs int, opts chaos.Opts) (int, error) {
	series, err := chaos.RunSeries(w, cl, seed, runs, opts)
	if err != nil {
		return 0, err
	}
	if opts.Mut != dsm.MutNone {
		// Kill semantics: the campaign hunts an injected bug, so at
		// least one run must catch it — a clean sweep means the oracles
		// have a blind spot.
		if len(series.Violations) > 0 {
			fmt.Fprintf(stdout, "mutation %s KILLED: caught in %d/%d run(s), first by %s\n",
				opts.Mut, len(series.Violations), runs, series.Violations[0])
			return 0, nil
		}
		fmt.Fprintf(stdout, "mutation %s SURVIVED %d run(s) of %s/%s\n", opts.Mut, runs, w.Name, cl)
		return 2, nil
	}
	for _, res := range series.Results {
		fmt.Fprintf(stdout, "%s %s", res.Token, res.Outcome)
		if res.PagesRecovered > 0 || res.PagesLost > 0 {
			fmt.Fprintf(stdout, " (recovered=%d lost=%d", res.PagesRecovered, res.PagesLost)
			if res.RecoveryLatency > 0 {
				fmt.Fprintf(stdout, " latency=%v", res.RecoveryLatency)
			}
			fmt.Fprint(stdout, ")")
		}
		fmt.Fprintln(stdout)
		if res.Outcome != cluster.OK {
			fmt.Fprintf(stdout, "  %s\n  replay: %s\n", res.Detail, res.Token)
		}
	}
	fmt.Fprintln(stdout, series)
	if len(series.Violations) > 0 {
		return 2, nil
	}
	return 0, nil
}
