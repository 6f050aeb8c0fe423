package mermaid

// One benchmark per table and figure of the paper's evaluation, plus
// real micro-benchmarks of the conversion machinery. The simulation
// benchmarks report virtual-time results as custom metrics
// (ms_simulated vs ms_paper, or s_simulated), so `go test -bench .`
// regenerates the whole evaluation; wall-clock ns/op measures the
// simulator itself. See EXPERIMENTS.md for the recorded comparison.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps/sor"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/exp"
	"repro/internal/vaxfloat"
)

func BenchmarkTable1FaultHandling(b *testing.B) {
	var rows []exp.Table1Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table1()
	}
	for _, r := range rows {
		op := "read"
		if r.Write {
			op = "write"
		}
		b.ReportMetric(r.MS, fmt.Sprintf("ms_%s_%s", r.Kind, op))
	}
}

func BenchmarkTable2PageTransfer(b *testing.B) {
	var rows []exp.Table2Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table2()
	}
	for _, r := range rows {
		if r.Size == 8192 {
			b.ReportMetric(r.MS, fmt.Sprintf("ms_%v_to_%v_8KB", r.From, r.To))
		}
	}
}

func BenchmarkTable3Conversion(b *testing.B) {
	var rows []exp.Table3Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table3()
	}
	for _, r := range rows {
		if r.Size == 8192 {
			name := strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(r.TypeName)
			b.ReportMetric(r.MS, "ms_"+name)
		}
	}
}

func BenchmarkTable4FaultDelay(b *testing.B) {
	var rows []exp.Table4Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table4()
	}
	var worst float64
	for _, r := range rows {
		rel := math.Abs(r.MS-r.PaperMS) / r.PaperMS
		worst = math.Max(worst, rel)
	}
	b.ReportMetric(worst*100, "worst_%_vs_paper")
}

func BenchmarkFigure3PhysicalVsDSM(b *testing.B) {
	var res exp.Figure3Result
	for i := 0; i < b.N; i++ {
		res = exp.Figure3(6)
	}
	last := len(res.Physical) - 1
	b.ReportMetric(res.Physical[last].Seconds, "s_physical_6thr")
	b.ReportMetric(res.Distributed[last].Seconds, "s_dsm_6thr")
}

func BenchmarkFigure4HeterogeneousMM(b *testing.B) {
	var pts []exp.FigPoint
	for i := 0; i < b.N; i++ {
		pts = exp.Figure4(16)
	}
	b.ReportMetric(pts[0].Seconds, "s_1thr")
	b.ReportMetric(pts[7].Seconds, "s_8thr")
	b.ReportMetric(pts[13].Seconds, "s_14thr")
}

func BenchmarkFigure5PCB(b *testing.B) {
	var pts []exp.Figure5Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure5(10)
	}
	b.ReportMetric(pts[len(pts)-1].Speedup, "speedup_10thr")
	b.ReportMetric(pts[len(pts)-1].Seconds, "s_10thr")
}

func BenchmarkFigure6PageSizeAlgorithms(b *testing.B) {
	var res exp.Figure6Result
	for i := 0; i < b.N; i++ {
		res = exp.Figure6(8)
	}
	b.ReportMetric(res.Large[7].Seconds, "s_8KB_8thr")
	b.ReportMetric(res.Small[7].Seconds, "s_1KB_8thr")
}

func BenchmarkFigure7MM1VsMM2SmallPages(b *testing.B) {
	var res exp.Figure7Result
	for i := 0; i < b.N; i++ {
		res = exp.Figure7(8)
	}
	b.ReportMetric(res.MM1[7].Seconds, "s_MM1_8thr")
	b.ReportMetric(res.MM2[7].Seconds, "s_MM2_8thr")
}

func BenchmarkThrashingMM2LargePages(b *testing.B) {
	var rows []exp.ThrashingResult
	for i := 0; i < b.N; i++ {
		rows = exp.Thrashing([]int{8}, []int64{1, 2, 3})
	}
	r := rows[0]
	b.ReportMetric(r.MeanS, "s_mean")
	b.ReportMetric(r.MaxS-r.MinS, "s_spread")
	b.ReportMetric(r.MeanTransfers, "transfers")
}

func BenchmarkSingleThreadOverhead(b *testing.B) {
	var rows []exp.OverheadResult
	for i := 0; i < b.N; i++ {
		rows = exp.SingleThreadOverhead()
	}
	for _, r := range rows {
		b.ReportMetric(r.OverheadPct, "pct_"+r.App)
	}
}

func BenchmarkAblationSameKindSource(b *testing.B) {
	var r exp.AblationResult
	for i := 0; i < b.N; i++ {
		r = exp.AblationSameKindSource()
	}
	b.ReportMetric(float64(r.BaselineConv), "conv_baseline")
	b.ReportMetric(float64(r.TunedConv), "conv_tuned")
}

// --- Real (wall-clock) micro-benchmarks of the conversion machinery ---

func BenchmarkRealInt32PageConversion(b *testing.B) {
	reg := conv.NewRegistry()
	buf := make([]byte, 8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		if _, err := reg.ConvertRegion(conv.Int32, buf, arch.SunArch, arch.FireflyArch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealFloat64PageConversion(b *testing.B) {
	reg := conv.NewRegistry()
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		if _, err := reg.ConvertRegion(conv.Float64, buf, arch.SunArch, arch.FireflyArch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealVaxFEncode(b *testing.B) {
	var out [4]byte
	for i := 0; i < b.N; i++ {
		vaxfloat.EncodeF(3.14159+float64(i&0xff), out[:])
	}
}

func BenchmarkRealVaxGRoundTrip(b *testing.B) {
	var out [8]byte
	for i := 0; i < b.N; i++ {
		vaxfloat.EncodeG(2.718281828459045, out[:])
		if _, ok := vaxfloat.DecodeG(out[:]); !ok {
			b.Fatal("reserved")
		}
	}
}

func BenchmarkRealQuickstartScenario(b *testing.B) {
	// Wall-clock cost of a complete small simulation: build a cluster,
	// run a cross-architecture round trip, close it.
	for i := 0; i < b.N; i++ {
		c, err := New(Config{
			Hosts: []HostSpec{{Kind: Sun}, {Kind: Firefly, CPUs: 4}},
			Seed:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.DefineSemaphore(1, 0, 0)
		worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
			v := e.ReadInt32(Addr(args[0]))
			e.WriteInt32(Addr(args[0]), v*2)
			e.V(1)
		})
		c.Run(0, func(e *Env) {
			addr := e.MustAlloc(Int32, 1)
			e.WriteInt32(addr, 21)
			if _, err := e.CreateThread(1, worker, uint32(addr)); err != nil {
				b.Fatal(err)
			}
			e.P(1)
			if e.ReadInt32(addr) != 42 {
				b.Fatal("wrong result")
			}
		})
		c.Close()
	}
}

func BenchmarkRealOwnerForwarding(b *testing.B) {
	// Wall-clock cost of a full dynamic-directory simulation (Li &
	// Hudak's probable-owner forwarding) on the migratory workload,
	// with the chain statistics as custom metrics.
	var r exp.DirectorySchemeRow
	for i := 0; i < b.N; i++ {
		r = exp.OwnerForwarding()
	}
	b.ReportMetric(r.ElapsedS, "s_simulated")
	b.ReportMetric(float64(r.Forwards), "forwards")
	b.ReportMetric(r.AvgHops, "avg_hops")
	b.ReportMetric(float64(r.MaxChain), "max_chain")
}

// benchQuorumFanout is the body of the BenchmarkQuorumFanout* pair:
// wall-clock cost of a full SC-ABD simulation — every read and write a
// two-phase majority fan-out — on an n-host heterogeneous cluster, with
// the quorum round counters as custom metrics.
func benchQuorumFanout(b *testing.B, n int) {
	const rounds = 50
	var stats DSMStats
	for i := 0; i < b.N; i++ {
		hosts := make([]HostSpec, n)
		for h := range hosts {
			if h%2 == 1 {
				hosts[h] = HostSpec{Kind: Firefly}
			} else {
				hosts[h] = HostSpec{Kind: Sun}
			}
		}
		c, err := New(Config{Hosts: hosts, Policy: Quorum, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		c.Run(0, func(e *Env) {
			addr := e.MustAlloc(Int32, 8)
			for r := 0; r < rounds; r++ {
				e.WriteInt32(addr, int32(r))
				if got := e.ReadInt32(addr); got != int32(r) {
					b.Fatalf("round %d read %d", r, got)
				}
			}
		})
		stats = c.TotalStats()
	}
	b.ReportMetric(float64(stats.QuorumReads)/rounds, "qreads/op")
	b.ReportMetric(float64(stats.QuorumWrites)/rounds, "qwrites/op")
	b.ReportMetric(float64(stats.QuorumWriteBacks), "writebacks")
	b.ReportMetric(float64(stats.QuorumRetries), "retries")
}

func BenchmarkQuorumFanout3Hosts(b *testing.B) { benchQuorumFanout(b, 3) }

func BenchmarkQuorumFanout5Hosts(b *testing.B) { benchQuorumFanout(b, 5) }

// --- RC (lazy release consistency) micro-benchmarks ------------------
//
// Wall-clock cost of the twin/diff machinery on the release path
// (BenchmarkRCDiffEncode) and of the vector-timestamp payload merge on
// the grant path (BenchmarkRCMerge). Frozen into BENCH.json by
// `make bench`.

func BenchmarkRCDiffEncode(b *testing.B) {
	// An 8 KB int32 page whose interval touched every 16th element —
	// the sparse-write shape MM2's round-robin rows produce — diffed
	// against its twin and encoded to the wire.
	reg := conv.NewRegistry()
	twin := make([]byte, 8192)
	for i := range twin {
		twin[i] = byte(i * 131)
	}
	page := make([]byte, 8192)
	copy(page, twin)
	for e := 0; e < 8192/4; e += 16 {
		page[e*4] ^= 0x5a
	}
	wire := make([]byte, 9000)
	var encoded int
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		d, err := reg.BuildDiff(conv.Int32, twin, page)
		if err != nil {
			b.Fatal(err)
		}
		encoded = d.EncodeTo(wire)
	}
	b.ReportMetric(float64(encoded), "wire_bytes")
}

func BenchmarkRCMerge(b *testing.B) {
	// Component-wise merge of two sync payloads — the work a semaphore
	// grant does when its stored release stamp meets the granting
	// host's, sized for an 8-host cluster with 16 pages of notices each.
	c, err := cluster.New(cluster.Config{
		Hosts:  []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
		Policy: dsm.PolicyRC,
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sync := c.Hosts[0].DSM.SyncModel()
	if sync == nil {
		b.Fatal("RC cluster has no sync model")
	}
	// Canonical payload layout: [u32 nvt][vt…][u32 n][page,ver]×n,
	// big-endian, notices ascending (see rcEncodePayload).
	payload := func(salt uint32) []byte {
		const nvt, n = 8, 16
		buf := make([]byte, 4+4*nvt+4+8*n)
		be := func(off int, v uint32) {
			buf[off] = byte(v >> 24)
			buf[off+1] = byte(v >> 16)
			buf[off+2] = byte(v >> 8)
			buf[off+3] = byte(v)
		}
		be(0, nvt)
		for i := uint32(0); i < nvt; i++ {
			be(int(4+4*i), salt*7+i)
		}
		off := 4 + 4*nvt
		be(off, n)
		off += 4
		for i := uint32(0); i < n; i++ {
			be(off, i+salt%3) // page numbers mostly overlap between payloads
			be(off+4, salt+i)
			off += 8
		}
		return buf
	}
	a, bb := payload(5), payload(9)
	var out []byte
	for i := 0; i < b.N; i++ {
		out = sync.MergePayload(a, bb)
	}
	b.ReportMetric(float64(len(out)), "merged_bytes")
}

func BenchmarkAblationSyncStyles(b *testing.B) {
	var r exp.SyncStyleResult
	for i := 0; i < b.N; i++ {
		r = exp.SyncStyles(10)
	}
	b.ReportMetric(r.SpinlockS, "s_spinlock")
	b.ReportMetric(r.SemaphoreS, "s_semaphore")
	b.ReportMetric(float64(r.SpinlockTransfers), "transfers_spinlock")
	b.ReportMetric(float64(r.SemaphoreTransfers), "transfers_semaphore")
}

func BenchmarkAblationManagerPlacement(b *testing.B) {
	var r exp.ManagerPlacementResult
	for i := 0; i < b.N; i++ {
		r = exp.ManagerPlacement()
	}
	b.ReportMetric(r.DistributedS, "s_distributed")
	b.ReportMetric(r.CentralS, "s_central")
}

func BenchmarkAlgorithmChoice(b *testing.B) {
	var rows []exp.AlgorithmChoiceRow
	for i := 0; i < b.N; i++ {
		rows = exp.AlgorithmChoice()
	}
	for _, r := range rows {
		b.ReportMetric(r.MRSWS, "s_mrsw_"+r.Workload)
		b.ReportMetric(r.CentralS, "s_central_"+r.Workload)
	}
}

func BenchmarkExtensionSORScaling(b *testing.B) {
	var one, four float64
	for i := 0; i < b.N; i++ {
		run := func(slaves []cluster.HostID) float64 {
			c, err := cluster.New(cluster.Config{
				Hosts: []cluster.HostSpec{
					{Kind: arch.Sun},
					{Kind: arch.Firefly, CPUs: 4},
					{Kind: arch.Firefly, CPUs: 4},
				},
				Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			r := sor.Register(c)
			res, err := r.Run(sor.Config{W: 256, H: 258, Iters: 4, Master: 0, Slaves: slaves})
			if err != nil {
				b.Fatal(err)
			}
			return res.Elapsed.Seconds()
		}
		one = run([]cluster.HostID{1})
		four = run([]cluster.HostID{1, 1, 2, 2})
	}
	b.ReportMetric(one, "s_1thr")
	b.ReportMetric(four, "s_4thr")
}

func BenchmarkPageSizeSpectrum(b *testing.B) {
	var pts []exp.PageSizePoint
	for i := 0; i < b.N; i++ {
		pts = exp.PageSizeSweep(8)
	}
	for _, p := range pts {
		b.ReportMetric(p.MM1S, fmt.Sprintf("s_MM1_%dB", p.PageSize))
		b.ReportMetric(p.MM2S, fmt.Sprintf("s_MM2_%dB", p.PageSize))
	}
}
