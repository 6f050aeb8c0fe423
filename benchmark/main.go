// Command benchmark is the Mermaid benchmark: four workloads, a ledger
// that keeps host time and virtual time apart, and a traced run that
// attributes host time to the repo's layers. BENCHMARK.json at the repo
// root declares what it prints; README.md says how to read it.
//
//	bash benchmark/run.sh                                  # every workload
//	bash benchmark/run.sh -workload fault-storm -trace 1   # per-layer table
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// A run sets up in fresh processes at least setupReps times, and until
// the set-ups have taken setupBudgetS in all (at most setupRepsMax
// times), and reports the median as setup_s: a set-up of a few tens of
// milliseconds is mostly process start-up, which needs more samples to
// settle than one dominated by the warm-up iteration.
const (
	setupReps    = 5
	setupRepsMax = 30
	setupBudgetS = 1.0
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	quick      bool
	out        string
	flipShadow bool
	// The child protocol: -child names the workload this process runs,
	// -t0 is the parent's clock just before it started the process, and
	// -setup-only makes the child stop once it is ready to iterate.
	child     string
	t0        int64
	setupOnly bool
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var o options
	var trace int
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: paper-eval, fault-storm, scale-fabric, verify-sweep or all")
	fs.Int64Var(&o.seed, "seed", 1, "the only source of randomness: cluster seeds, chaos base seed, access patterns")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long the timed iterations of one workload run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced iteration and prints the per-layer metrics instead")
	fs.BoolVar(&o.quick, "quick", false, "1/20-scale operation counts and a single iteration (smoke test)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for result, trace and profile files")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	fs.BoolVar(&o.flipShadow, "flip-shadow", false, "test hook: fault-storm expects one wrong value, so the run must fail")
	fs.StringVar(&o.child, "child", "", "internal: run this workload in this process")
	fs.Int64Var(&o.t0, "t0", 0, "internal: parent's clock at process start, Unix ns")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit once set up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0

	switch {
	case compare:
		if fs.NArg() != 2 {
			logf("-compare takes two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case o.child != "":
		res, err := runChild(o)
		if err != nil {
			logf("%v", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			logf("writing result: %v", err)
			return 1
		}
		return 0
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(o.workload); !ok {
		logf("unknown workload %q", o.workload)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	file := resultFile{Env: readEnv()}
	code := 0
	for _, name := range names {
		res, err := runWorkload(ctx, o, name)
		if err != nil {
			logf("%s: %v", name, err)
			return 1
		}
		file.Runs = append(file.Runs, res)
		printRun(stdout, res)
		if res.Failed > 0 {
			code = 1
		}
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	if err := writeJSON(path, file); err != nil {
		logf("%v", err)
		return 1
	}
	logf("results in %s", path)
	return code
}

// runWorkload runs one workload in fresh child processes — so that peak
// memory and garbage-collector state are its own — and folds the
// repeated set-ups into the result.
func runWorkload(ctx context.Context, o options, name string) (*runResult, error) {
	var setups []float64
	if !o.trace && !o.quick {
		// The iterating child below is the last set-up of the series.
		for total := 0.0; len(setups)+1 < setupReps || (len(setups)+1 < setupRepsMax && total < setupBudgetS); {
			r, err := spawnChild(ctx, o, name, true)
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.SetupS)
			total += r.SetupS
		}
	}
	res, err := spawnChild(ctx, o, name, false)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		setups = append(setups, res.SetupS)
		res.Metrics["setup_s"] = summarize("s", setups)
	}
	return res, nil
}

func spawnChild(ctx context.Context, o options, name string, setupOnly bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{
		"-child", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.out,
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	for _, f := range []struct {
		name string
		on   bool
	}{{"-trace=1", o.trace}, {"-quick", o.quick}, {"-flip-shadow", o.flipShadow}, {"-setup-only", setupOnly}} {
		if f.on {
			args = append(args, f.name)
		}
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// One simulated process runs at a time; the second core serves the
	// garbage collector.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res runResult
	if err := json.Unmarshal(outBytes, &res); err != nil {
		return nil, fmt.Errorf("decoding the child's result: %w", err)
	}
	return &res, nil
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints every metric of a run by name and unit, then the
// driver's line.
func printRun(w io.Writer, r *runResult) {
	decls := endToEnd
	kind := "end-to-end, untraced"
	if r.Trace {
		decls, kind = perLayer, "per-layer, traced"
	}
	fmt.Fprintf(w, "# %s  seed %d  %s  %d iteration(s)  sim_digest %s\n", r.Workload, r.Seed, kind, r.Iterations, r.SimDigest)
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range decls {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %16.6g %-6s %-7s", d.Name, m.Value, d.Unit, d.Clock)
		if len(m.Samples) > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n %d", slices.Min(m.Samples), slices.Max(m.Samples), len(m.Samples))
		}
		fmt.Fprintln(w)
		line.Metrics[d.Name] = driverValue{Value: m.Value, Unit: d.Unit}
	}
	if r.Trace {
		fmt.Fprintf(w, "# trace.overhead_pct is against an untraced wall_s of %.6g s in the same process\n", r.UntracedWallS)
		fmt.Fprintf(w, "# spans by name: %-28s %8s %12s %12s\n", "", "count", "total ms", "self ms")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "#   %-42s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	fmt.Fprintf(w, "# checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	// Encoding a struct of numbers, strings and maps cannot fail.
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSON(path string, v any) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}
