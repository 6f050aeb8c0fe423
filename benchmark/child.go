package main

// One workload in one process: set-up, then either the timed untraced
// iterations (end-to-end metrics) or the traced iteration with its CPU
// profile and the layer probes (per-layer metrics).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
)

// metricValue is one reported metric: the median of its samples (or the
// single reading), and the samples -compare judges spread by.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(unit string, samples []float64) metricValue {
	return metricValue{Value: median(samples), Unit: unit, Samples: samples}
}

// runResult is one workload's run as the child reports it and as the
// result file stores it.
type runResult struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Trace         bool                   `json:"trace"`
	Quick         bool                   `json:"quick,omitempty"`
	Iterations    int                    `json:"iterations"`
	SetupS        float64                `json:"setup_s"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	SimDigest     string                 `json:"sim_digest"`
	UntracedWallS float64                `json:"untraced_wall_s,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
	Spans         []spanSummary          `json:"spans,omitempty"`
}

// resultFile is what one invocation writes to -out and -compare reads.
type resultFile struct {
	Env  envBlock     `json:"env"`
	Runs []*runResult `json:"runs"`
}

func runChild(o options) (*runResult, error) {
	w, ok := findWorkload(o.child)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.child)
	}
	cfg := runCfg{seed: o.seed, scale: 1, flipShadow: o.flipShadow}
	if o.quick {
		cfg.scale = 0.05
	}
	su, err := setup(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &runResult{
		Workload: o.child, Seed: o.seed, Trace: o.trace, Quick: o.quick,
		Attempted: su.checks, Failed: su.failed, Metrics: map[string]metricValue{},
	}
	if o.t0 != 0 {
		res.SetupS = time.Since(time.Unix(0, o.t0)).Seconds()
	}
	if o.setupOnly {
		return res, nil
	}
	if o.trace {
		err = tracedRun(o, w, cfg, res)
	} else {
		timedRun(o, w, cfg, su, res)
	}
	return res, err
}

// account folds one iteration's checks into the result and holds its
// digest against the first iteration's: iterations of one seed must
// simulate exactly the same thing.
func (r *runResult) account(it iterOut) {
	r.Iterations++
	r.Attempted += it.checks + 1
	r.Failed += it.failed
	d := fmt.Sprintf("%016x", it.digest)
	if r.SimDigest == "" {
		r.SimDigest = d
	}
	if d != r.SimDigest {
		r.Failed++
		logf("iteration %d simulated something else: sim_digest %s, first iteration %s", r.Iterations, d, r.SimDigest)
	}
}

// timedRun iterates for o.seconds of host time (at least once) and
// reports the end-to-end metrics.
func timedRun(o options, w workload, cfg runCfg, su setupOut, res *runResult) {
	var wall, rate []float64
	var last iterOut
	for start := time.Now(); ; {
		t0 := time.Now()
		last = w.iterate(cfg)
		s := time.Since(t0).Seconds()
		wall = append(wall, s)
		rate = append(rate, last.ops/s)
		res.account(last)
		if len(wall) == w.rssAfter {
			res.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
		}
		if o.quick || time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	if len(wall) < w.rssAfter {
		res.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	}
	res.Metrics["wall_s"] = summarize("s", wall)
	res.Metrics["ops_per_s"] = summarize("1/s", rate)
	res.Metrics["sim_s"] = metricValue{Value: last.simS, Unit: "s"}
	res.Metrics["paper_err_pct"] = metricValue{Value: su.paperErrPct, Unit: "%"}
}

// tracedRun runs one untraced reference iteration, then traced
// iterations under a CPU profile for about half of o.seconds (at least
// one), then the layer probes, and reports the per-layer metrics.
func tracedRun(o options, w workload, cfg runCfg, res *runResult) error {
	t0 := time.Now()
	ref := w.iterate(cfg)
	refWall := time.Since(t0).Seconds()
	res.account(ref)
	res.UntracedWallS = refWall

	tr := newTracer()
	cfg.tr = tr
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting the CPU profile: %w", err)
	}
	var wall []float64
	var it iterOut
	samples := map[string][]float64{}
	for start := time.Now(); ; {
		tr.nextRun()
		t0 := time.Now()
		it = w.iterate(cfg)
		wall = append(wall, time.Since(t0).Seconds())
		res.account(it)
		for k, v := range it.samples {
			samples[k] = append(samples[k], v...)
		}
		if o.quick || time.Since(start).Seconds() >= o.seconds/2 {
			break
		}
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	iters := float64(len(wall))

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	vals := shares(stacks)
	vals["rt.mallocs_per_iter"] = float64(m1.Mallocs-m0.Mallocs) / iters
	vals["rt.alloc_mb_per_iter"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / iters
	vals["rt.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / iters
	vals["rt.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / iters

	layerMetrics(vals, ref, refWall, it, samples)
	vals["trace.overhead_pct"] = 100 * (median(wall) - refWall) / refWall
	vals["trace.spans"] = float64(len(tr.spans)) / iters
	tr.nextRun()
	// Every workload's probes start from a collected heap, whatever the
	// iterations left behind.
	runtime.GC()
	runProbes(tr, o.quick, vals)

	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		delete(vals, d.Name)
	}
	for name := range vals {
		// A value nobody declared would be dropped silently; the smoke
		// test turns this into a failure.
		res.Failed++
		logf("per-layer value %s is not declared in metrics.go", name)
	}
	res.Spans = tr.summarize()

	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.child, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return err
	}
	var chrome bytes.Buffer
	if err := tr.writeChrome(&chrome); err != nil {
		return err
	}
	return os.WriteFile(base+".trace.json", chrome.Bytes(), 0o644)
}

// layerMetrics derives the per-layer metrics that come from an
// iteration's counters, part timings and latency samples. Host rates
// use the untraced reference iteration ref; counts (identical in both)
// and latency samples come from the traced one.
func layerMetrics(vals map[string]float64, ref iterOut, refWall float64, it iterOut, samples map[string][]float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for name, v := range it.layer {
		if _, declared := perLayerByName[name]; declared {
			vals[name] = v
		}
	}
	// Part timings are host times: take them from the untraced iteration.
	for name, v := range ref.layer {
		if _, declared := perLayerByName[name]; declared && strings.HasSuffix(name, "_s") {
			vals[name] = v
		}
	}
	c := it.layer
	vals["netsim.bus_util"] = 100 * ratio(c["netsim.busy_ns"]/1e9, it.simS)
	vals["netsim.frames_per_s"] = ratio(c["netsim.frames_sent"], refWall)
	vals["remoteop.retransmit_ratio"] = 100 * ratio(c["remoteop.retransmits"], c["remoteop.msgs_sent"])
	faults := c["dsm.faulting_accesses"]
	vals["dsm.transfers_per_fault"] = ratio(c["dsm.pages_fetched"], c["dsm.read_faults"]+c["dsm.write_faults"])
	vals["dsm.mallocs_per_fault"] = ratio(vals["rt.mallocs_per_iter"], faults)
	vals["dsm.faults_per_s"] = ratio(faults, refWall)
	vals["dsm.fault_sim_ms_p50"] = percentile(samples["fault_sim_ms"], 50)
	vals["dsm.fault_sim_ms_p99"] = percentile(samples["fault_sim_ms"], 99)
	rd, wr := samples["read-fault_host_us"], samples["write-fault_host_us"]
	both := append(append([]float64(nil), rd...), wr...)
	vals["dsm.read_fault_host_us_p50"] = percentile(rd, 50)
	vals["dsm.write_fault_host_us_p50"] = percentile(wr, 50)
	vals["dsm.fault_host_us_p50"] = percentile(both, 50)
	vals["dsm.fault_host_us_p99"] = percentile(both, 99)
	for _, sc := range stormCells {
		cell := sc.name
		vals["dsm."+cell+".fault_host_us_p50"] = percentile(samples[cell+".fault_host_us"], 50)
		vals["dsm."+cell+".fault_sim_ms_p50"] = percentile(samples[cell+".fault_sim_ms"], 50)
		vals["dsm."+cell+".faults_per_s"] = ratio(c["dsm."+cell+".faults"], ref.layer["dsm."+cell+".host_s"])
	}
	for _, w := range mcWorkloads {
		vals["mc."+w+"_sched_per_s"] = ratio(c["mc."+w+"_schedules"], ref.layer["mc."+w+"_s"])
	}
	vals["mc.schedules_per_s"] = ratio(c["mc.schedules"], ref.layer["mc.dfs_s"])
	vals["mc.steps_per_s"] = ratio(c["mc.steps"], ref.layer["mc.dfs_s"])
	vals["mc.pruned_ratio"] = ratio(c["mc.pruned"], c["mc.pruned"]+c["mc.schedules"])
	for _, cl := range chaos.Classes() {
		class := string(cl)
		vals["chaos."+class+"_per_s"] = ratio(c["chaos."+class+"_campaigns"], ref.layer["chaos."+class+"_s"])
	}
	vals["chaos.campaigns_per_s"] = ratio(c["chaos.campaigns"], ref.layer["chaos.s"])
}
