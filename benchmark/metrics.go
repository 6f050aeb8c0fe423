package main

// The benchmark's declared surface: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repo root states the same
// lists for the driver; bench_test.go fails when the two drift.
//
// Two clocks are kept apart and every metric names its own: "host" is
// wall-clock time of the simulator process (noisy, compared within a
// bound), "virtual" is simulated time or a simulated count (repeats
// exactly for a given seed, compared exactly).

import (
	"math"
	"slices"

	"repro/internal/chaos"
)

type clock string

const (
	host    clock = "host"
	virtual clock = "virtual"
)

// metricDecl declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none. Moves names the end-to-end metric and workload a
// per-layer metric is expected to move (the prediction written down
// before measuring).
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Clock  clock
	Moves  string
}

// endToEnd are the metrics every workload reports on every untraced
// run. The driver's contract wants each of them on each workload and
// never zero, so the workload-specific rates of the issue live under
// one name (ops_per_s, unit of work stated per workload in README.md)
// and the fault-latency percentiles are per-layer (dsm.*). The host-time
// bounds are the widest the contract allows: the 2-core box this was
// sized on has slow spells of 20–30 % lasting tens of seconds, which
// moved the median of ten 15 s runs by up to 8 % between sessions.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25, host, ""},
	{"wall_s", "s", "lower", 0.25, host, ""},
	{"ops_per_s", "1/s", "higher", 0.25, host, ""},
	{"peak_rss_mb", "MB", "lower", 0.25, host, ""},
	{"sim_s", "s", "lower", 0.10, virtual, ""},
	{"paper_err_pct", "%", "lower", 0.05, virtual, ""},
}

// shareBuckets are the CPU-profile buckets; each is reported as
// "<bucket>_share" except the last two, which are the benchmark's own
// frames and whatever the classifier does not know.
var shareBuckets = []string{
	"sim.host", "rt.sched", "rt.mem", "rt.other", "netsim.host", "remoteop.host",
	"proto.host", "conv.host", "vaxfloat.host", "bufpool.host", "dsm.host",
	"dsync.host", "threads.host", "cluster.host", "apps.host", "mc.host", "chaos.host",
	"sctrace.host", "trace.bench", "trace.other",
}

var perLayer = buildPerLayer()

var perLayerByName = func() map[string]metricDecl {
	m := make(map[string]metricDecl, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit, better string, c clock, moves string) {
		out = append(out, metricDecl{Name: name, Unit: unit, Better: better, Clock: c, Moves: moves})
	}
	for _, b := range shareBuckets {
		moves := "wall_s on the workload where the share is large"
		switch b {
		case "trace.bench":
			moves = "none; the benchmark's own driver and shadow-model frames"
		case "trace.other":
			moves = "none; above 10 % the bucket table is stale"
		}
		add(b+"_share", "%", "lower", host, moves)
	}

	add("sim.handoff_ns", "ns", "lower", host, "wall_s on paper-eval")
	add("sim.timer_event_ns", "ns", "lower", host, "ops_per_s on scale-fabric")
	add("sim.spawn_shutdown_us", "us", "lower", host, "ops_per_s on verify-sweep")

	add("rt.mallocs_per_iter", "count", "lower", host, "wall_s everywhere; peak_rss_mb on fault-storm")
	add("rt.alloc_mb_per_iter", "MB", "lower", host, "wall_s everywhere; peak_rss_mb on fault-storm")
	add("rt.gc_cycles", "count", "lower", host, "wall_s everywhere")
	add("rt.gc_pause_ms", "ms", "lower", host, "wall_s everywhere")

	add("netsim.frames_sent", "count", "lower", virtual, "sim_s; ops_per_s on scale-fabric")
	add("netsim.bytes_sent", "count", "lower", virtual, "sim_s on fault-storm")
	add("netsim.cross_segment_frames", "count", "lower", virtual, "sim_s on scale-fabric")
	add("netsim.frames_dropped", "count", "lower", virtual, "must stay 0 outside verify-sweep")
	add("netsim.bus_util", "%", "lower", virtual, "sim_s on fault-storm and scale-fabric")
	add("netsim.frame_ns", "ns", "lower", host, "ops_per_s on scale-fabric")
	add("netsim.frames_per_s", "1/s", "higher", host, "is ops_per_s on scale-fabric")

	add("remoteop.msgs_sent", "count", "lower", virtual, "sim_s on fault-storm")
	add("remoteop.fragments_sent", "count", "lower", virtual, "sim_s on fault-storm")
	add("remoteop.bulk_bytes", "count", "lower", virtual, "sim_s on fault-storm")
	add("remoteop.retransmit_ratio", "%", "lower", virtual, "must stay 0 outside verify-sweep")
	add("remoteop.duplicates", "count", "lower", virtual, "must stay 0 outside verify-sweep")
	add("remoteop.checksum_drops", "count", "lower", virtual, "must stay 0 outside verify-sweep")
	add("remoteop.call_8k_ns", "ns", "lower", host, "wall_s on paper-eval; ops_per_s on fault-storm")

	add("proto.codec_8k_ns", "ns", "lower", host, "ops_per_s on fault-storm, weakly")
	add("proto.codec_allocs", "count", "lower", host, "rt.mallocs_per_iter on fault-storm")

	add("conv.conversions", "count", "lower", virtual, "sim_s on fault-storm")
	add("conv.int32_mb_per_s", "MB/s", "higher", host, "no end-to-end movement predicted")
	add("conv.float64_mb_per_s", "MB/s", "higher", host, "no end-to-end movement predicted")
	add("conv.struct_mb_per_s", "MB/s", "higher", host, "no end-to-end movement predicted")
	add("conv.diff_build_ns", "ns", "lower", host, "dsm.rc.faults_per_s on fault-storm only")
	add("conv.diff_apply_ns", "ns", "lower", host, "dsm.rc.faults_per_s on fault-storm only")
	add("conv.allocs_per_op", "count", "lower", host, "rt.mallocs_per_iter on fault-storm")

	add("vaxfloat.f_region_mb_per_s", "MB/s", "higher", host, "none predicted; guards the bulk kernels")
	add("vaxfloat.g_region_mb_per_s", "MB/s", "higher", host, "none predicted; guards the bulk kernels")

	add("bufpool.getput_ns", "ns", "lower", host, "rt.mallocs_per_iter, then ops_per_s on fault-storm")

	for _, n := range []string{"read_faults", "write_faults", "pages_fetched", "bytes_fetched", "upgrades",
		"invalidations_sent", "forwards", "chain_hops", "quorum_retries", "rc_twins", "rc_diffs_sent", "rc_diff_bytes"} {
		add("dsm."+n, "count", "lower", virtual, "sim_s and dsm.fault_sim_ms_* on fault-storm")
	}
	add("dsm.transfers_per_fault", "ratio", "lower", virtual, "sim_s and dsm.fault_sim_ms_* on fault-storm")
	add("dsm.mallocs_per_fault", "count", "lower", host, "ops_per_s and peak_rss_mb on fault-storm")
	add("dsm.hit_ns", "ns", "lower", host, "wall_s on paper-eval only")
	add("dsm.fault_sim_ms_p50", "ms", "lower", virtual, "sim_s on fault-storm and scale-fabric")
	add("dsm.fault_sim_ms_p99", "ms", "lower", virtual, "sim_s on fault-storm and scale-fabric")
	add("dsm.faults_per_s", "1/s", "higher", host, "is ops_per_s on fault-storm")
	add("dsm.fault_host_us_p50", "us", "lower", host, "ops_per_s on fault-storm (serial phase)")
	add("dsm.read_fault_host_us_p50", "us", "lower", host, "ops_per_s on fault-storm (serial phase)")
	add("dsm.write_fault_host_us_p50", "us", "lower", host, "ops_per_s on fault-storm (serial phase)")
	add("dsm.fault_host_us_p99", "us", "lower", host, "ops_per_s on fault-storm (serial phase)")
	for _, c := range stormCells {
		add("dsm."+c.name+".fault_host_us_p50", "us", "lower", host, "ops_per_s on fault-storm")
		add("dsm."+c.name+".fault_sim_ms_p50", "ms", "lower", virtual, "sim_s on fault-storm")
		add("dsm."+c.name+".faults_per_s", "1/s", "higher", host, "ops_per_s on fault-storm")
	}

	add("dsync.pv_host_us", "us", "lower", host, "wall_s on paper-eval; dsm.rc.faults_per_s on fault-storm")
	add("threads.create_host_us", "us", "lower", host, "wall_s on paper-eval")

	add("cluster.new_ms_4", "ms", "lower", host, "ops_per_s on verify-sweep and fault-storm")
	add("cluster.new_ms_1024", "ms", "lower", host, "setup_s and wall_s on scale-fabric")
	add("cluster.shutdown_ms_1024", "ms", "lower", host, "wall_s on scale-fabric")

	for _, s := range paperSections {
		add("exp."+s+"_s", "s", "lower", host, "wall_s on paper-eval, nowhere else")
	}

	for _, w := range mcWorkloads {
		add("mc."+w+"_sched_per_s", "1/s", "higher", host, "ops_per_s on verify-sweep")
	}
	add("mc.schedules_per_s", "1/s", "higher", host, "ops_per_s on verify-sweep")
	add("mc.steps_per_s", "1/s", "higher", host, "ops_per_s on verify-sweep")
	add("mc.pruned_ratio", "ratio", "higher", virtual, "ops_per_s on verify-sweep")
	add("mc.kill_suite_s", "s", "lower", host, "wall_s on verify-sweep")
	for _, c := range chaos.Classes() {
		add("chaos."+string(c)+"_per_s", "1/s", "higher", host, "ops_per_s on verify-sweep")
	}
	add("chaos.campaigns_per_s", "1/s", "higher", host, "ops_per_s on verify-sweep")

	add("trace.overhead_pct", "%", "lower", host, "none; traced vs untraced wall_s")
	add("trace.spans", "count", "lower", host, "none")
	return out
}

var (
	paperSections = []string{"tables", "f3", "f4", "f5", "f6", "f7", "psweep", "thrash", "ovh", "abl"}
	mcWorkloads   = []string{"basic", "dynamic", "quorum", "rc"}
)

func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
