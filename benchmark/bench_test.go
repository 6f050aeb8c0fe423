package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the driver-facing declaration at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json and
// metrics.go from drifting apart.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) > 8 || len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("counts beyond the contract: %d workloads, %d end-to-end, %d per-layer", len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d/%d/%d workloads/end-to-end/per-layer, metrics.go %d/%d/%d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		unique(w.Name)
		if d := workloads[i]; w.Name != d.Name || w.Why != d.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, metrics.go %q", i, w.Name, d.Name)
		}
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bj.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || d.Moves == "" {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
	}
}

// TestQuickSmoke runs every workload at 1/20 scale, untraced and
// traced, and checks that exactly the declared metrics come out, each
// finite, and that no output check fails.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{child: w.Name, seed: 1, quick: true, trace: trace, out: out, t0: time.Now().UnixNano()}
			res, err := runChild(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d checks failed", w.Name, trace, res.Failed, res.Attempted)
			}
			decls := endToEnd
			if trace {
				decls = perLayer
			} else {
				// The parent folds the repeated set-ups into setup_s.
				res.Metrics["setup_s"] = summarize("s", []float64{res.SetupS})
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(decls))
			}
			var shareSum float64
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not finite: %+v", w.Name, trace, d.Name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", w.Name, d.Name, m.Value)
				}
				if strings.HasSuffix(d.Name, "_share") {
					shareSum += m.Value
				}
			}
			if trace && math.Abs(shareSum-100) > 1 {
				t.Errorf("%s: the share buckets sum to %.2f %%", w.Name, shareSum)
			}
		}
	}
}

// TestFlippedShadowFails proves a missed output check reaches the
// result: with one expected value flipped, fault-storm must fail.
func TestFlippedShadowFails(t *testing.T) {
	res, err := runChild(options{child: "fault-storm", seed: 1, quick: true, flipShadow: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("a flipped expected value went unnoticed")
	}
	var buf bytes.Buffer
	printRun(&buf, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 {
		t.Errorf("driver line reports %+v for a failed run", line)
	}
}

// TestClassify pins the profile bucket table to a fixture list, so a Go
// upgrade that renames runtime functions cannot move shares silently.
func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Kernel).dispatch":         "sim.host",
		"repro/internal/sim.(*Proc).Sleep":              "sim.host",
		"repro/internal/remoteop.checksum":              "remoteop.host",
		"repro/internal/apps/matmul.(*app).slave":       "apps.host",
		"repro/internal/dsm.(*Module).EnsureAccess":     "dsm.host",
		"repro/internal/conv.(*Registry).ConvertRegion": "conv.host",
		"repro/internal/vaxfloat.IEEEToGRegion":         "vaxfloat.host",
		"repro/internal/exp.Figure7":                    "apps.host",
		"repro/internal/cluster.New":                    "cluster.host",
		"repro/benchmark.(*storm).access":               "trace.bench",
		"main.(*storm).access":                          "trace.bench",
		"runtime.chansend":                              "rt.sched",
		"runtime.chanrecv1":                             "rt.sched",
		"runtime.gopark":                                "rt.sched",
		"runtime.findRunnable":                          "rt.sched",
		"runtime.futex":                                 "rt.sched",
		"runtime.schedule":                              "rt.sched",
		"runtime.scanobject":                            "rt.mem",
		"runtime.mallocgc":                              "rt.mem",
		"runtime.gcBgMarkWorker":                        "rt.mem",
		"runtime.memmove":                               "rt.mem",
		"runtime.copystack":                             "rt.mem",
		"runtime.(*mspan).sweep":                        "rt.mem",
		"runtime.mapaccess1_fast64":                     "rt.other",
		"runtime.nanotime":                              "rt.sched",
		"runtime.lock2":                                 "rt.sched",
		"runtime.(*unwinder).next":                      "rt.mem",
		"internal/runtime/atomic.(*Uint32).Load":        "rt.other",
		"repro/internal/model.(*Params).Jitter":         "",
		"hash/fnv.(*sum64a).Write":                      "",
		"sort.Slice":                                    "",
		"repro/internal/somethingnew.F":                 "trace.other",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
	// A standard-library leaf is charged to the first caller that
	// classifies.
	if got := bucketOf([]string{"sort.insertionSort", "sort.Slice", "repro/internal/mc.RunDFS", "main.verifySweep"}); got != "mc.host" {
		t.Errorf("bucketOf charged a sort leaf to %q, want mc.host", got)
	}
}

// TestParseProfile decodes a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	var x uint64
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	_ = x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples in 200 ms; the box is too loaded to say more")
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.Contains(fn, "TestParseProfile")
		}
		if s.weight <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample without weight or stack: %+v", s)
		}
	}
	if !found {
		t.Error("no sample names the function that burned the CPU")
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestCompareVerdicts(t *testing.T) {
	hostLower := metricDecl{Name: "wall_s", Better: "lower", Bound: 0.10, Clock: host}
	hostHigher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10, Clock: host}
	virt := metricDecl{Name: "sim_s", Better: "lower", Bound: 0.05, Clock: virtual}
	mv := func(samples ...float64) metricValue { return summarize("", samples) }
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b metricValue
		want string
	}{
		{"same", hostLower, mv(1.00, 1.01, 1.02), mv(1.01, 1.00, 1.02), unchanged},
		{"within bound", hostLower, mv(1.00, 1.01, 1.02), mv(1.05, 1.06, 1.07), unchanged},
		{"slower", hostLower, mv(1.00, 1.01, 1.02), mv(1.20, 1.21, 1.22), regressed},
		{"faster", hostLower, mv(1.00, 1.01, 1.02), mv(0.80, 0.81, 0.82), improved},
		{"rate up", hostHigher, mv(100, 101, 102), mv(120, 121, 122), improved},
		{"rate down", hostHigher, mv(100, 101, 102), mv(80, 81, 82), regressed},
		{"noisy and interleaved", hostLower, mv(0.8, 1.0, 1.3), mv(0.9, 1.15, 1.2), unresolved},
		{"noisy but separated", hostLower, mv(0.8, 1.0, 1.3), mv(1.4, 1.6, 1.9), regressed},
		{"virtual equal", virt, mv(307.345), mv(307.345), unchanged},
		{"virtual one ulp worse", virt, mv(307.345), mv(307.34500000000006), regressed},
		{"virtual better", virt, mv(307.345), mv(300), improved},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "fault", Start: 10, End: 40, Parent: 0},
		{Name: "fault", Start: 30, End: 60, Parent: 0}, // overlaps the first: two runnable threads
		{Name: "fault", Start: 90, End: 120, Parent: 0},
	}}
	for _, s := range tr.summarize() {
		if s.Name == "run" && s.SelfMS*1e6 != 40 {
			t.Errorf("self time of run is %v ns, want 40 (100 minus the covered 10–60 and 90–100)", s.SelfMS*1e6)
		}
	}
}
