package main

// What every workload shares: the per-iteration result, the digest
// over simulated statistics, and set-up (output checks against the
// apps' own verifiers, the paper-accuracy figure, and the warm-up).

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/apps/matmul"
	"repro/internal/apps/pcb"
	"repro/internal/apps/sor"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/remoteop"
)

// runCfg is what one iteration of a workload is given.
type runCfg struct {
	seed int64
	// scale sizes the fixed operation counts: 1 for a timed iteration,
	// 0.1 for the warm-up, 0.05 under -quick.
	scale float64
	// tr records spans in the traced run; nil otherwise.
	tr *tracer
	// flipShadow makes fault-storm expect one wrong value — the test
	// hook that proves a failed check reaches the exit code.
	flipShadow bool
}

// n scales an operation count, never below 1.
func (c runCfg) n(full int) int {
	return max(1, int(math.Round(float64(full)*c.scale)))
}

// iterOut is what one iteration reports. Everything except the host
// times in layer and samples is a pure function of (workload, seed,
// scale).
type iterOut struct {
	simS   float64 // simulated seconds summed over the iteration's runs
	ops    float64 // units of simulated work (the workload names the unit)
	checks int     // output checks made
	failed int     // output checks missed
	digest uint64  // FNV-64 over simS, every Stats counter and result checksums
	// layer holds per-layer readings by metric name: counts read from
	// the layers' Stats(), and host seconds of the iteration's parts.
	layer map[string]float64
	// samples holds per-operation latencies by metric stem, recorded in
	// the traced run only (the percentiles are per-layer metrics).
	samples map[string][]float64
}

func newIterOut() iterOut {
	return iterOut{layer: map[string]float64{}, samples: map[string][]float64{}}
}

// check counts one output check and reports a miss on standard error.
func (o *iterOut) check(ok bool, format string, args ...any) {
	o.checkN(1, ok, format, args...)
}

// checkN counts n output checks that pass or fail together: the n
// schedules of one DFS, the n campaigns of one chaos series.
func (o *iterOut) checkN(n int, ok bool, format string, args ...any) {
	o.checks += n
	if !ok {
		o.failed++
		if o.failed <= 5 {
			logf("check failed: "+format, args...)
		}
	}
}

func (o *iterOut) sample(stem string, v float64) {
	o.samples[stem] = append(o.samples[stem], v)
}

// addClusterStats folds a finished cluster's layer counters into the
// iteration's per-layer readings and its digest.
func addClusterStats(o *iterOut, dg digest, c *cluster.Cluster) {
	d := c.TotalDSMStats()
	n := c.Net.Stats()
	var r remoteop.Stats
	for _, h := range c.Hosts {
		s := h.EP.Stats()
		r.Sent += s.Sent
		r.FragmentsSent += s.FragmentsSent
		r.Retransmits += s.Retransmits
		r.Duplicates += s.Duplicates
		r.BulkBytes += s.BulkBytes
		r.ChecksumDrops += s.ChecksumDrops
	}
	for _, kv := range []struct {
		name string
		v    int
	}{
		{"dsm.read_faults", d.ReadFaults}, {"dsm.write_faults", d.WriteFaults},
		{"dsm.pages_fetched", d.PagesFetched}, {"dsm.bytes_fetched", d.BytesFetched},
		{"dsm.upgrades", d.Upgrades}, {"dsm.invalidations_sent", d.InvalidationsSent},
		{"dsm.forwards", d.Forwards}, {"dsm.chain_hops", d.ChainHops},
		{"dsm.quorum_retries", d.QuorumRetries}, {"dsm.rc_twins", d.RCTwins},
		{"dsm.rc_diffs_sent", d.RCDiffsSent}, {"dsm.rc_diff_bytes", d.RCDiffBytes},
		{"conv.conversions", d.Conversions},
		{"netsim.frames_sent", n.FramesSent}, {"netsim.bytes_sent", n.BytesSent},
		{"netsim.cross_segment_frames", n.CrossSegmentFrames}, {"netsim.frames_dropped", n.FramesDropped},
		{"netsim.busy_ns", int(n.BusyTime)},
		{"remoteop.msgs_sent", r.Sent}, {"remoteop.fragments_sent", r.FragmentsSent},
		{"remoteop.bulk_bytes", r.BulkBytes}, {"remoteop.retransmits", r.Retransmits},
		{"remoteop.duplicates", r.Duplicates}, {"remoteop.checksum_drops", r.ChecksumDrops},
	} {
		o.layer[kv.name] += float64(kv.v)
		dg.add(kv.v)
	}
}

// workload is one of the benchmark's workloads; Name and Why are what
// BENCHMARK.json declares.
type workload struct {
	Name string
	Why  string
	// warm says whether set-up runs one untimed 1/10-scale iteration.
	// paper-eval does not: users run it cold.
	warm bool
	// rssAfter is the timed iteration after which peak_rss_mb is read
	// (at the end of the run if fewer fit). The peak of a few dozen MB
	// moves by a fifth with where collections happen to fall and settles
	// over several iterations; but exp never shuts its kernels down, so
	// on paper-eval parked goroutines pile up (430 MB after one
	// iteration, 860 MB after two) and only the first iteration's peak —
	// what a user's cold run reaches — is independent of how many fit
	// into -seconds.
	rssAfter int
	iterate  func(cfg runCfg) iterOut
}

var workloads = []workload{
	{"paper-eval", "the full mermaid-bench section list, the run people wait for: apps compute, access hit path, goroutine handoff and frame checksums dominate", false, 1, paperEval},
	{"fault-storm", "zero-compute page faults across seven engine cells: dsm+remoteop+proto+conv do the work, apps none; read-share vs write-pingpong pair", true, 4, faultStorm},
	{"scale-fabric", "1024-host bus and switched-star runs: netsim multicast tree, the sim event heap with over 1k live processes and cluster.New do the work", true, 4, scaleFabric},
	{"verify-sweep", "mc DFS, mutation kill suite and chaos campaigns: thousands of tiny clusters built, chooser-driven, hashed, oracle-checked and shut down", true, 4, verifySweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest accumulates simulated statistics into one FNV-64a value.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(vals ...any) {
	for _, v := range vals {
		// Writes to a hash never fail.
		_, _ = fmt.Fprintf(d.h, "%v|", v)
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// setupOut is what set-up reports besides the time it took.
type setupOut struct {
	paperErrPct float64
	checks      int
	failed      int
}

// setup is everything between process start and the first timed
// iteration: the apps' own verifiers on small inputs (output checks),
// Table 4 against the paper (the model's accuracy, stated beside every
// simulated number), and the workload's warm-up.
func setup(w workload, cfg runCfg) (setupOut, error) {
	var out setupOut
	check := func(name string, ok bool, err error) {
		out.checks++
		if err != nil || !ok {
			out.failed++
			logf("setup check %s failed: ok=%v err=%v", name, ok, err)
		}
	}

	hosts := []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly, CPUs: 2}, {Kind: arch.Firefly, CPUs: 2}}
	slaves := []cluster.HostID{1, 1, 2, 2}
	for _, app := range []struct {
		name string
		run  func(c *cluster.Cluster) (correct bool, err error)
	}{
		{"matmul", func(c *cluster.Cluster) (bool, error) {
			r, err := matmul.Register(c).Run(matmul.Config{N: 32, Master: 0, Slaves: slaves, Verify: true})
			return r.Correct, err
		}},
		{"pcb", func(c *cluster.Cluster) (bool, error) {
			r, err := pcb.Register(c).Run(pcb.Config{W: 64, H: 128, Master: 0, Slaves: slaves, Seed: cfg.seed, Verify: true})
			return r.Correct, err
		}},
		{"sor", func(c *cluster.Cluster) (bool, error) {
			r, err := sor.Register(c).Run(sor.Config{W: 32, H: 34, Iters: 3, Master: 0, Slaves: slaves, Verify: true})
			return r.Correct, err
		}},
	} {
		c, err := cluster.New(cluster.Config{Hosts: hosts, Seed: cfg.seed})
		if err != nil {
			return out, err
		}
		ok, err := app.run(c)
		check(app.name, ok, err)
		c.K.Shutdown()
	}

	out.paperErrPct = paperErrPct(exp.Table4())
	check("table4", out.paperErrPct > 0 && out.paperErrPct < 20, nil)

	if w.warm {
		wc := cfg
		wc.scale = cfg.scale / 10
		wc.tr = nil
		r := w.iterate(wc)
		out.checks += r.checks
		out.failed += r.failed
	}
	return out, nil
}

// paperErrPct is the worst |simulated − paper| / paper over Table 4's
// rows, in percent.
func paperErrPct(rows []exp.Table4Row) float64 {
	var worst float64
	for _, r := range rows {
		worst = math.Max(worst, 100*math.Abs(r.MS-r.PaperMS)/r.PaperMS)
	}
	return worst
}
