package mermaid

// Wall-clock micro-benchmarks of the conversion machinery and of whole
// small simulations: developer tools run by `go test -bench`, frozen
// nowhere. The paper's tables and figures are virtual-time results;
// `mermaid-bench` prints them and TestGolden pins them. The host-clock
// ledger is benchmark/run.sh, and what a whole scenario allocates is
// pinned by TestScenarioAllocCeilings (allocs_test.go), which runs the
// scenario bodies below.

import (
	"encoding/binary"
	"testing"

	"repro/internal/apps/sor"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/vaxfloat"
)

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
	for i := 0; i < b.N; i++ {
		quickstartScenario(b)
	}
}

// quickstartScenario is a complete small simulation: build a cluster,
// run a cross-architecture round trip, close it.
func quickstartScenario(tb testing.TB) {
	c, err := New(Config{
		Hosts: []HostSpec{{Kind: Sun}, {Kind: Firefly, CPUs: 4}},
		Seed:  1,
	})
	if err != nil {
		tb.Fatal(err)
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
			tb.Fatal(err)
		}
		e.P(1)
		if e.ReadInt32(addr) != 42 {
			tb.Fatal("wrong result")
		}
	})
	c.Close()
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
	var stats DSMStats
	for i := 0; i < b.N; i++ {
		stats = quorumFanout(b, n)
	}
	b.ReportMetric(float64(stats.QuorumReads)/quorumRounds, "qreads/op")
	b.ReportMetric(float64(stats.QuorumWrites)/quorumRounds, "qwrites/op")
	b.ReportMetric(float64(stats.QuorumWriteBacks), "writebacks")
	b.ReportMetric(float64(stats.QuorumRetries), "retries")
}

const quorumRounds = 50

// quorumCluster builds an n-host quorum cluster alternating Sun and
// Firefly hosts.
func quorumCluster(tb testing.TB, n int) *Cluster {
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
		tb.Fatal(err)
	}
	return c
}

func quorumFanout(tb testing.TB, n int) DSMStats {
	c := quorumCluster(tb, n)
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 8)
		for r := 0; r < quorumRounds; r++ {
			e.WriteInt32(addr, int32(r))
			if got := e.ReadInt32(addr); got != int32(r) {
				tb.Fatalf("round %d read %d", r, got)
			}
		}
	})
	return c.TotalStats()
}

func BenchmarkQuorumFanout3Hosts(b *testing.B) { benchQuorumFanout(b, 3) }

func BenchmarkQuorumFanout5Hosts(b *testing.B) { benchQuorumFanout(b, 5) }

// BenchmarkQuorumReadShare is one version of a page read many times by
// every host: host 0 writes it once, then each host in turn reads it
// quorumRounds times, so every phase-1 reply carries the same replica
// version.
func BenchmarkQuorumReadShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		quorumReadShare(b, 3)
	}
}

func quorumReadShare(tb testing.TB, n int) {
	c := quorumCluster(tb, n)
	var addr Addr
	c.Run(0, func(e *Env) {
		addr = e.MustAlloc(Int32, 1024)
		e.WriteInt32(addr, 7)
	})
	for h := 0; h < n; h++ {
		c.Run(HostID(h), func(e *Env) {
			for r := 0; r < quorumRounds; r++ {
				if got := e.ReadInt32(addr); got != 7 {
					tb.Fatalf("host %d round %d read %d", h, r, got)
				}
			}
		})
	}
	c.Close()
}

// --- RC (lazy release consistency) micro-benchmarks ------------------
//
// Wall-clock cost of the twin/diff machinery on the release path
// (BenchmarkRCDiffEncode) and of folding a release into a primitive's
// accumulation at its manager (BenchmarkRCMerge).

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
	op := rcMerge(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// rcMerge is the fold a primitive's manager does when a release
// arrives, sized for an 8-host cluster: one interval's release of 16
// written pages (16 notices, each page's diff carried, as the engine
// encodes it) folds into an accumulation already holding rcLogCap (16)
// earlier versions of each page. Each call first advances every version
// the release names, so each fold is of a newer interval and retires
// the oldest diff of every page.
func rcMerge(tb testing.TB) func() {
	hosts := make([]cluster.HostSpec, 8)
	for i := range hosts {
		hosts[i].Kind = []arch.Kind{arch.Sun, arch.Firefly}[i%2]
	}
	const pages, page, prim = 16, 8192, 1
	c, err := cluster.New(cluster.Config{Hosts: hosts, PageSize: page, Policy: dsm.PolicyRC, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sync := c.Hosts[0].DSM.SyncModel()
	if sync == nil {
		tb.Fatal("RC cluster has no sync model")
	}
	var rel []byte
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		base, err := h0.DSM.Alloc(p, conv.Int32, pages*page/4)
		if err != nil {
			tb.Fatal(err)
		}
		h := c.Hosts[1]
		for pg := 0; pg < pages; pg++ {
			h.DSM.WriteInt32(p, base+dsm.Addr(pg*page), int32(pg))
		}
		if rel, err = h.DSM.SyncModel().ReleasePayload(p); err != nil {
			tb.Fatal(err)
		}
	})
	c.K.Shutdown()
	var head int
	fold := func() {
		head = advanceVersions(rel)
		sync.Released(prim, rel)
	}
	for i := 0; i < 16; i++ {
		fold()
	}
	if got, want := len(sync.Grant(prim, 0)), head+16*(len(rel)-head); got != want {
		tb.Fatalf("the accumulation encodes to %d bytes, want %d: 16 versions of each page's diff", got, want)
	}
	return fold
}

// advanceVersions adds one to every version a release payload names,
// its notices' and its carried diffs' (the layout is internal/dsm's
// rc.go), and returns the length of its head.
func advanceVersions(b []byte) int {
	inc := func(v []byte) { binary.BigEndian.PutUint32(v, binary.BigEndian.Uint32(v)+1) }
	off := 4 + 4*int(binary.BigEndian.Uint32(b))
	n := int(binary.BigEndian.Uint32(b[off:]))
	for off += 4; n > 0; n, off = n-1, off+8 {
		inc(b[off+4:])
	}
	head := off
	for ; off < len(b); off += 16 + int(binary.BigEndian.Uint32(b[off+12:])) {
		inc(b[off+4:])
	}
	return head
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

// BenchmarkUpdateWrites and BenchmarkCentralWrites are writeRounds
// int32 writes by a Firefly to a page a Sun allocated and holds, under
// the write-update and the central-server engine: the Sun stores every
// write's run through the pooled staging copy the receive step converts
// in (dsm's storeRun).
func BenchmarkUpdateWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		policyWrites(b, Update)
	}
}

func BenchmarkCentralWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		policyWrites(b, Central)
	}
}

const writeRounds = 100

func policyWrites(tb testing.TB, policy Policy) {
	c, err := New(Config{Hosts: []HostSpec{{Kind: Sun}, {Kind: Firefly}}, Policy: policy, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var addr Addr
	c.Run(0, func(e *Env) {
		addr = e.MustAlloc(Int32, 1)
		e.WriteInt32(addr, -1)
	})
	c.Run(1, func(e *Env) {
		for r := int32(0); r < writeRounds; r++ {
			e.WriteInt32(addr, r)
		}
	})
	c.Run(0, func(e *Env) {
		if got := e.ReadInt32(addr); got != writeRounds-1 {
			tb.Fatalf("the Sun reads %d after the last write", got)
		}
	})
	c.Close()
}
