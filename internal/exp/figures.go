package exp

import (
	"fmt"

	"repro/internal/apps/matmul"
	"repro/internal/apps/pcb"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/sim"
)

// The paper's workload parameters.
const (
	// MMSize is the matrix dimension (256×256 integers, §3.2).
	MMSize = 256
	// PCBWidth and PCBHeight are the board image dimensions: the
	// 2 cm × 16 cm area at 128 px/cm, stored with the long (16 cm) axis
	// as rows so stripes follow it.
	PCBWidth  = 256
	PCBHeight = 2048
	// fireflyCPUs is the per-Firefly processor count used by the
	// figures (the machines had up to 7; Topaz keeps one busy).
	fireflyCPUs = 6
)

// FigPoint is one point of a response-time series.
type FigPoint struct {
	// Threads is the slave thread count.
	Threads int
	// Seconds is the response time in virtual seconds.
	Seconds float64
	// Transfers counts DSM page bodies moved during the run.
	Transfers int
}

// mmRun is one matrix multiplication on a fresh cluster with the
// master on host 0: the decision points of every MM measurement, stated
// once. Zero fields are the defaults (MM1, 8 KB pages, no jitter,
// whole-row stores, write-invalidate MRSW, no source preference).
type mmRun struct {
	hosts    []cluster.HostSpec
	slaves   []cluster.HostID
	assign   matmul.Assignment
	pageSize int
	seed     int64
	// jitter perturbs compute times and, to match, per-request
	// processing.
	jitter float64
	// chunk is the result-store granularity in elements (0 = whole rows).
	chunk int
	// policy selects the replication engine; the acquire/release
	// brackets are on for the one non-SC policy.
	policy dsm.Policy
	// sameKind turns on the §2.3 same-kind read-source preference.
	sameKind bool
}

// run executes the measurement.
func (r mmRun) run() matmul.Result {
	var params *model.Params
	if r.jitter > 0 {
		pv := model.Default()
		pv.ProcessJitterPct = r.jitter
		params = &pv
	}
	c := must(cluster.New(cluster.Config{
		Hosts: r.hosts, PageSize: r.pageSize, Seed: r.seed, Params: params,
		Policy: r.policy, PreferSameKindSource: r.sameKind,
	}))
	defer c.Close()
	return must(matmul.Register(c).Run(matmul.Config{
		N: MMSize, Master: 0, Slaves: r.slaves,
		Assignment: r.assign, JitterPct: r.jitter, WriteChunk: r.chunk,
		AcquireRelease: r.policy == dsm.PolicyRC,
	}))
}

// point is run for the callers that plot only the figure point.
func (r mmRun) point() FigPoint {
	res := r.run()
	return FigPoint{Threads: len(r.slaves), Seconds: res.Elapsed.Seconds(), Transfers: res.Stats.PagesFetched}
}

// points runs every mmRun of the list — each on its own cluster, as
// many at a time as sim.Each has workers — and returns the figure
// points in list order.
func points(runs []mmRun) []FigPoint {
	return sim.Each(len(runs), func(i int) FigPoint { return runs[i].point() })
}

// twoSeries measures series a and series b as one list and hands each
// back its own points.
func twoSeries(a, b []mmRun) (pa, pb []FigPoint) {
	pts := points(append(a, b...))
	return pts[:len(a):len(a)], pts[len(a):]
}

// balancedRun is the figures' standard heterogeneous configuration at t
// threads: master on a Sun, slaves balanced over one to four Fireflies,
// seed 1, every other decision at its default.
func balancedRun(t int) mmRun {
	nf := firefliesFor(t)
	return mmRun{hosts: sunAndFireflies(nf, fireflyCPUs), slaves: placeThreads(t, nf), seed: 1}
}

// twoSeriesTable formats two response-time series measured at the same
// thread counts side by side.
func twoSeriesTable(title, nameA, nameB string, a, b []FigPoint) *Table {
	t := &Table{Title: title, Header: []string{"threads", nameA, nameB}}
	for i := range a {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", a[i].Threads),
			fmt.Sprintf("%.1f", a[i].Seconds),
			fmt.Sprintf("%.1f", b[i].Seconds),
		})
	}
	return t
}

// Figure3Result holds the two series of Figure 3.
type Figure3Result struct {
	// Physical: all slave threads on the CPUs of one Firefly (physical
	// shared memory), master on another Firefly.
	Physical []FigPoint
	// Distributed: one slave thread per Firefly (DSM), master on yet
	// another Firefly.
	Distributed []FigPoint
}

// Figure3 compares physical and distributed shared memory for MM (§3.2,
// Figure 3): the same thread counts either share one Firefly's memory
// or span machines.
func Figure3(maxThreads int) Figure3Result {
	master := cluster.HostSpec{Kind: arch.Firefly, CPUs: 1}
	var phys, dist []mmRun
	for t := 1; t <= maxThreads; t++ {
		// Physical: host 0 the master, host 1 the Firefly computing
		// with all t threads.
		phys = append(phys, mmRun{
			hosts:  []cluster.HostSpec{master, {Kind: arch.Firefly, CPUs: fireflyCPUs}},
			slaves: placeThreads(t, 1), seed: 1,
		})
		// Distributed: one thread on each of t further one-CPU Fireflies.
		hosts := make([]cluster.HostSpec, t+1)
		for i := range hosts {
			hosts[i] = master
		}
		dist = append(dist, mmRun{hosts: hosts, slaves: placeThreads(t, t), seed: 1})
	}
	var out Figure3Result
	out.Physical, out.Distributed = twoSeries(phys, dist)
	return out
}

// Figure3Table formats Figure 3.
func Figure3Table(res Figure3Result) *Table {
	return twoSeriesTable("Figure 3: MM response time, physical vs distributed shared memory (s)",
		"one Firefly (physical)", "multiple Fireflies (DSM)", res.Physical, res.Distributed)
}

// Figure4 measures MM with the master on a Sun and slaves balanced over
// one to four Fireflies (§3.2, Figure 4). Threads ranges over
// 1..maxThreads.
func Figure4(maxThreads int) []FigPoint {
	var runs []mmRun
	for t := 1; t <= maxThreads; t++ {
		runs = append(runs, balancedRun(t))
	}
	return points(runs)
}

// SeriesTable formats a single response-time series.
func SeriesTable(title string, pts []FigPoint) *Table {
	t := &Table{Title: title, Header: []string{"threads", "seconds", "page transfers"}}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%.1f", p.Seconds),
			fmt.Sprintf("%d", p.Transfers),
		})
	}
	return t
}

// Figure5Point extends FigPoint with speedup over the sequential Sun run.
type Figure5Point struct {
	FigPoint
	// Speedup is sequential-Sun time divided by this response time.
	Speedup float64
}

// Figure5 measures PCB inspection with the master on a Sun and checking
// threads on one to four Fireflies (§3.2, Figure 5).
func Figure5(maxThreads int) []Figure5Point {
	params := model.Default()
	seqSeconds := pcb.Sequential(&params, arch.Sun, PCBWidth, PCBHeight, 5).Seconds()
	return sim.Each(max(maxThreads, 0), func(i int) Figure5Point {
		t := i + 1
		nf := firefliesFor(t)
		c := must(cluster.New(cluster.Config{Hosts: sunAndFireflies(nf, fireflyCPUs), Seed: 1}))
		defer c.Close()
		res := must(pcb.Register(c).Run(pcb.Config{
			W: PCBWidth, H: PCBHeight,
			Master: 0, Slaves: placeThreads(t, nf), Seed: 5,
		}))
		pt := FigPoint{Threads: t, Seconds: res.Elapsed.Seconds(), Transfers: res.Stats.PagesFetched}
		return Figure5Point{FigPoint: pt, Speedup: seqSeconds / pt.Seconds}
	})
}

// Figure5Table formats Figure 5.
func Figure5Table(pts []Figure5Point) *Table {
	t := &Table{
		Title:  "Figure 5: PCB inspection, master on Sun, slaves on 1–4 Fireflies",
		Header: []string{"threads", "seconds", "speedup vs Sun sequential"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%.1f", p.Seconds),
			fmt.Sprintf("%.1f", p.Speedup),
		})
	}
	return t
}

// Figure6Result holds the two series of Figure 6.
type Figure6Result struct {
	// Large uses 8 KB DSM pages, Small 1 KB, both running MM1.
	Large, Small []FigPoint
}

// Figure6 compares the largest and smallest page size algorithms on MM1
// (§3.3, Figure 6).
func Figure6(maxThreads int) Figure6Result {
	var large, small []mmRun
	for t := 1; t <= maxThreads; t++ {
		mm := balancedRun(t)
		large = append(large, mm)
		mm.pageSize = 1024
		small = append(small, mm)
	}
	var out Figure6Result
	out.Large, out.Small = twoSeries(large, small)
	return out
}

// Figure6Table formats Figure 6.
func Figure6Table(res Figure6Result) *Table {
	return twoSeriesTable("Figure 6: MM1 with the large vs small page size algorithm (s)",
		"8KB pages", "1KB pages", res.Large, res.Small)
}

// Figure7Result holds the two series of Figure 7.
type Figure7Result struct {
	// MM1 and MM2 both run under the smallest page size algorithm.
	MM1, MM2 []FigPoint
}

// Figure7 compares MM1 and MM2 under the smallest page size algorithm
// (§3.3, Figure 7): with one row per 1 KB page, round-robin assignment
// causes no false sharing and the two behave similarly.
func Figure7(maxThreads int) Figure7Result {
	var mm1, mm2 []mmRun
	for t := 1; t <= maxThreads; t++ {
		mm := balancedRun(t)
		mm.pageSize = 1024
		mm1 = append(mm1, mm)
		mm.assign = matmul.MM2
		mm2 = append(mm2, mm)
	}
	var out Figure7Result
	out.MM1, out.MM2 = twoSeries(mm1, mm2)
	return out
}

// Figure7Table formats Figure 7.
func Figure7Table(res Figure7Result) *Table {
	return twoSeriesTable("Figure 7: MM1 vs MM2 with the small page size algorithm (s)",
		"MM1", "MM2", res.MM1, res.MM2)
}

// ThrashingResult summarizes the §3.3 thrashing experiment.
type ThrashingResult struct {
	// Threads is the slave thread count over the Fireflies.
	Threads int
	// MinS, MaxS, MeanS summarize response times across seeds.
	MinS, MaxS, MeanS float64
	// SequentialS is the one-Firefly sequential baseline.
	SequentialS float64
	// MeanTransfers is the average page-body count moved per run.
	MeanTransfers float64
	// MM1Transfers is MM1's transfer count at the same configuration,
	// for contrast.
	MM1Transfers int
}

// Thrashing runs MM2 under the largest page size algorithm — the
// paper's worst case, where an 8 KB page is shared by up to eight
// threads — across several seeds, reproducing the large, fluctuating
// execution times and page transfer counts of §3.3.
func Thrashing(threadCounts []int, seeds []int64) []ThrashingResult {
	if len(seeds) == 0 {
		panic("exp: Thrashing needs at least one seed")
	}
	// Per thread count: MM2 once per seed, then MM1 for contrast, with
	// its whole-row stores.
	per := len(seeds) + 1
	var runs []mmRun
	for _, t := range threadCounts {
		mm := thrashingRun(t)
		for _, seed := range seeds {
			mm.seed = seed
			runs = append(runs, mm)
		}
		mm.assign, mm.seed, mm.chunk = matmul.MM1, seeds[0], 0
		runs = append(runs, mm)
	}
	pts := points(runs)
	// One-thread sequential-equivalent baseline on a Firefly.
	params := model.Default()
	seq := matmul.Sequential(&params, arch.Firefly, MMSize).Seconds()
	var out []ThrashingResult
	for i, t := range threadCounts {
		mm2, mm1 := pts[i*per:(i+1)*per-1], pts[(i+1)*per-1]
		res := ThrashingResult{
			Threads: t, MinS: mm2[0].Seconds, MaxS: mm2[0].Seconds,
			SequentialS: seq, MM1Transfers: mm1.Transfers,
		}
		for _, pt := range mm2 {
			res.MeanS += pt.Seconds
			res.MeanTransfers += float64(pt.Transfers)
			res.MinS = min(res.MinS, pt.Seconds)
			res.MaxS = max(res.MaxS, pt.Seconds)
		}
		res.MeanS /= float64(len(seeds))
		res.MeanTransfers /= float64(len(seeds))
		out = append(out, res)
	}
	return out
}

// thrashingRun is §3.3's worst case at t threads: MM2 under the largest
// page size algorithm with 3 % jitter. The paper ran MM2 on two or
// three Fireflies; three maximizes the page ping-pong parties.
// Element-burst stores (the original system stored each result element
// as computed) let contended pages be stolen mid-row: the ingredient of
// full-severity thrashing. The caller sets the seed.
func thrashingRun(t int) mmRun {
	const nf = 3
	return mmRun{
		hosts: sunAndFireflies(nf, fireflyCPUs), slaves: placeThreads(t, nf),
		assign: matmul.MM2, pageSize: 8192, jitter: 0.03, chunk: 4,
	}
}

// ThrashingRCPoint contrasts §3.3's worst case — MM2 under the largest
// page size algorithm — across consistency models at one thread count.
type ThrashingRCPoint struct {
	// Threads is the slave thread count over the Fireflies.
	Threads int
	// InvS / InvTransfers / InvBytes are the write-invalidate MRSW
	// baseline: response time, page bodies moved, page data on the wire.
	InvS         float64
	InvTransfers int
	InvBytes     int
	// RCS / RCTransfers / RCBytes are the same run under dsm.PolicyRC
	// with the acquire/release brackets on; RCDiffBytes is the typed
	// diff traffic that replaces the invalidate engine's page bodies —
	// the honest accounting of where RC's bytes went instead.
	RCS         float64
	RCTransfers int
	RCBytes     int
	RCDiffBytes int
}

// ThrashingRC reruns the thrashing configuration under lazy release
// consistency: the same MM2 round-robin assignment, 8 KB pages and
// element-burst stores that make the write-invalidate engine ping-pong
// C's pages, but with each writer keeping an independent writable copy
// (twin) and shipping element-aligned diffs at release. The page
// transfer count — the §3.3 thrashing signature — should collapse; the
// diff bytes column shows what RC pays instead.
func ThrashingRC(threadCounts []int, seed int64) []ThrashingRCPoint {
	var runs []mmRun
	for _, t := range threadCounts {
		mm := thrashingRun(t)
		mm.seed = seed
		runs = append(runs, mm)
		mm.policy = dsm.PolicyRC
		runs = append(runs, mm)
	}
	res := sim.Each(len(runs), func(i int) matmul.Result { return runs[i].run() })
	var out []ThrashingRCPoint
	for i, t := range threadCounts {
		inv, rc := res[2*i], res[2*i+1]
		out = append(out, ThrashingRCPoint{
			Threads:      t,
			InvS:         inv.Elapsed.Seconds(),
			InvTransfers: inv.Stats.PagesFetched,
			InvBytes:     inv.Stats.BytesFetched,
			RCS:          rc.Elapsed.Seconds(),
			RCTransfers:  rc.Stats.PagesFetched,
			RCBytes:      rc.Stats.BytesFetched,
			RCDiffBytes:  rc.Stats.RCDiffBytes,
		})
	}
	return out
}

// ThrashingRCTable formats the consistency-model contrast.
func ThrashingRCTable(rows []ThrashingRCPoint) *Table {
	t := &Table{
		Title:  "Thrashing vs release consistency (§3.3 ext.): MM2 with 8KB pages",
		Header: []string{"threads", "inv s", "rc s", "inv transfers", "rc transfers", "inv KB", "rc KB", "rc diff KB"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.1f", r.InvS),
			fmt.Sprintf("%.1f", r.RCS),
			fmt.Sprintf("%d", r.InvTransfers),
			fmt.Sprintf("%d", r.RCTransfers),
			fmt.Sprintf("%.0f", float64(r.InvBytes)/1024),
			fmt.Sprintf("%.0f", float64(r.RCBytes)/1024),
			fmt.Sprintf("%.0f", float64(r.RCDiffBytes)/1024),
		})
	}
	return t
}

// ThrashingTable formats the thrashing summary.
func ThrashingTable(rows []ThrashingResult) *Table {
	t := &Table{
		Title:  "Thrashing (§3.3): MM2 with 8KB pages across seeds",
		Header: []string{"threads", "min s", "mean s", "max s", "seq s", "×seq", "transfers (MM2)", "transfers (MM1)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.1f", r.MinS),
			fmt.Sprintf("%.1f", r.MeanS),
			fmt.Sprintf("%.1f", r.MaxS),
			fmt.Sprintf("%.1f", r.SequentialS),
			fmt.Sprintf("%.1f", r.MeanS/r.SequentialS),
			fmt.Sprintf("%.0f", r.MeanTransfers),
			fmt.Sprintf("%d", r.MM1Transfers),
		})
	}
	return t
}

// OverheadResult is the §3.2 single-slave overhead check.
type OverheadResult struct {
	App string
	// SequentialS is the modelled sequential time on the host.
	SequentialS float64
	// DSMS is the DSM run with one slave on the same host.
	DSMS float64
	// OverheadPct is the relative difference.
	OverheadPct float64
}

// SingleThreadOverhead reproduces the §3.2 observation that DSM
// initialization, thread creation and synchronization overheads are
// near zero: a one-slave DSM run on a single host is compared with the
// sequential time.
func SingleThreadOverhead() []OverheadResult {
	runs := []func() OverheadResult{
		func() OverheadResult { // MM on one Firefly
			c := must(cluster.New(cluster.Config{Hosts: []cluster.HostSpec{{Kind: arch.Firefly, CPUs: 2}}, Seed: 1}))
			defer c.Close()
			res := must(matmul.Register(c).Run(matmul.Config{N: MMSize, Master: 0, Slaves: []cluster.HostID{0}}))
			return OverheadResult{App: "MM", SequentialS: matmul.Sequential(c.Params, arch.Firefly, MMSize).Seconds(), DSMS: res.Elapsed.Seconds()}
		},
		func() OverheadResult { // PCB on one Sun
			c := must(cluster.New(cluster.Config{Hosts: []cluster.HostSpec{{Kind: arch.Sun}}, Seed: 1}))
			defer c.Close()
			res := must(pcb.Register(c).Run(pcb.Config{W: PCBWidth, H: PCBHeight, Master: 0, Slaves: []cluster.HostID{0}, Seed: 5, Overlap: 1}))
			return OverheadResult{App: "PCB", SequentialS: pcb.Sequential(c.Params, arch.Sun, PCBWidth, PCBHeight, 5).Seconds(), DSMS: res.Elapsed.Seconds()}
		},
	}
	out := sim.Each(len(runs), func(i int) OverheadResult { return runs[i]() })
	for i, r := range out {
		out[i].OverheadPct = 100 * (r.DSMS - r.SequentialS) / r.SequentialS
	}
	return out
}

// OverheadTable formats the single-slave overhead check.
func OverheadTable(rows []OverheadResult) *Table {
	t := &Table{
		Title:  "DSM initialization and thread overhead (§3.2): sequential vs 1-slave DSM",
		Header: []string{"app", "sequential s", "DSM 1-slave s", "overhead %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App,
			fmt.Sprintf("%.1f", r.SequentialS),
			fmt.Sprintf("%.1f", r.DSMS),
			fmt.Sprintf("%.1f", r.OverheadPct),
		})
	}
	return t
}

// AblationResult compares a toggled optimization.
type AblationResult struct {
	Name                    string
	BaselineS, TunedS       float64
	BaselineConv, TunedConv int
}

// AblationSameKindSource measures the §2.3 optimization of serving read
// faults from a same-type holder: Firefly readers of Sun-written data
// should convert once, not once per reader.
func AblationSameKindSource() AblationResult {
	mm := mmRun{hosts: sunAndFireflies(4, fireflyCPUs), slaves: placeThreads(8, 4), seed: 1}
	tuned := mm
	tuned.sameKind = true
	runs := []mmRun{mm, tuned}
	res := sim.Each(len(runs), func(i int) matmul.Result { return runs[i].run() })
	return AblationResult{
		Name:      "prefer same-kind read source",
		BaselineS: res[0].Elapsed.Seconds(), TunedS: res[1].Elapsed.Seconds(),
		BaselineConv: res[0].Stats.Conversions, TunedConv: res[1].Stats.Conversions,
	}
}

// PageSizePoint is one cell of the page-size sweep.
type PageSizePoint struct {
	// PageSize is the DSM page size in bytes.
	PageSize int
	// MM1S and MM2S are response times of the two assignments (s).
	MM1S, MM2S float64
}

// PageSizeSweep explores the §2.4 observation that the two page-size
// algorithms are the extremes of a spectrum: MM1 and MM2 run at every
// power-of-two DSM page size between 1 KB and 8 KB. Larger pages help
// the well-behaved MM1 (fewer faults) and hurt the false-sharing MM2.
func PageSizeSweep(threads int) []PageSizePoint {
	sizes := []int{1024, 2048, 4096, 8192}
	mm := balancedRun(threads)
	mm.jitter, mm.chunk = 0.03, 4
	var runs []mmRun
	for _, ps := range sizes {
		mm.pageSize = ps
		mm.assign = matmul.MM1
		runs = append(runs, mm)
		mm.assign = matmul.MM2
		runs = append(runs, mm)
	}
	pts := points(runs)
	out := make([]PageSizePoint, len(sizes))
	for i, ps := range sizes {
		out[i] = PageSizePoint{PageSize: ps, MM1S: pts[2*i].Seconds, MM2S: pts[2*i+1].Seconds}
	}
	return out
}

// PageSizeSweepTable formats the sweep.
func PageSizeSweepTable(pts []PageSizePoint) *Table {
	t := &Table{
		Title:  "Page size spectrum (§2.4): MM1 vs MM2 response time (s), 8 threads",
		Header: []string{"DSM page", "MM1 (block rows)", "MM2 (round robin)"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dB", p.PageSize),
			fmt.Sprintf("%.1f", p.MM1S),
			fmt.Sprintf("%.1f", p.MM2S),
		})
	}
	return t
}
