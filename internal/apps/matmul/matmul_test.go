package matmul

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/sim"
)

func newCluster(t *testing.T, fireflies, cpus int, pageSize int) *cluster.Cluster {
	t.Helper()
	hosts := []cluster.HostSpec{{Kind: arch.Sun}}
	for i := 0; i < fireflies; i++ {
		hosts = append(hosts, cluster.HostSpec{Kind: arch.Firefly, CPUs: cpus})
	}
	c, err := cluster.New(cluster.Config{Hosts: hosts, Seed: 42, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMM1CorrectAcrossHeterogeneousHosts(t *testing.T) {
	c := newCluster(t, 2, 4, 8192)
	r := Register(c)
	res, err := r.Run(Config{
		N:      64,
		Master: 0, // Sun master
		Slaves: []cluster.HostID{1, 1, 2, 2},
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("distributed result differs from local multiplication")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Stats.Conversions == 0 {
		t.Fatal("Sun→Firefly data moved without conversions")
	}
}

func TestMM2CorrectDespiteContention(t *testing.T) {
	c := newCluster(t, 2, 4, 8192)
	r := Register(c)
	res, err := r.Run(Config{
		N:          64,
		Master:     0,
		Slaves:     []cluster.HostID{1, 1, 2, 2},
		Assignment: MM2,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("MM2 result wrong under row contention")
	}
}

func newRCCluster(t *testing.T, fireflies, cpus int, pageSize int) *cluster.Cluster {
	t.Helper()
	hosts := []cluster.HostSpec{{Kind: arch.Sun}}
	for i := 0; i < fireflies; i++ {
		hosts = append(hosts, cluster.HostSpec{Kind: arch.Firefly, CPUs: cpus})
	}
	c, err := cluster.New(cluster.Config{Hosts: hosts, Seed: 42, PageSize: pageSize, Policy: dsm.PolicyRC})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMM2CorrectUnderRC runs the contended assignment under lazy
// release consistency with the acquire/release brackets on: the result
// must still verify — every C row must flow to the master through
// twin/diff propagation along the done-semaphore handshake — and the
// false-sharing page traffic that defines §3.3's thrashing must be
// gone: concurrent writers keep independent writable copies, so C's
// pages never ping-pong.
func TestMM2CorrectUnderRC(t *testing.T) {
	mm2 := func(c *cluster.Cluster, bracket bool) Result {
		r := Register(c)
		res, err := r.Run(Config{
			N:              64,
			Master:         0,
			Slaves:         []cluster.HostID{1, 1, 2, 2},
			Assignment:     MM2,
			Verify:         true,
			WriteChunk:     8,
			AcquireRelease: bracket,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rc := mm2(newRCCluster(t, 2, 4, 8192), true)
	if !rc.Correct {
		t.Fatal("MM2 result wrong under release consistency")
	}
	if rc.Stats.RCTwins == 0 || rc.Stats.RCDiffsSent == 0 {
		t.Fatalf("RC machinery idle: twins=%d diffs=%d", rc.Stats.RCTwins, rc.Stats.RCDiffsSent)
	}
	sc := mm2(newCluster(t, 2, 4, 8192), false)
	if rc.Stats.PagesFetched*3 > sc.Stats.PagesFetched {
		t.Fatalf("RC fetched %d pages, MRSW %d; want ≥3× reduction from un-thrashed C pages",
			rc.Stats.PagesFetched, sc.Stats.PagesFetched)
	}
}

func TestMM2LargePagesSlowerThanMM1(t *testing.T) {
	run := func(a Assignment) (elapsed int64) {
		c := newCluster(t, 2, 4, 8192)
		r := Register(c)
		res, err := r.Run(Config{
			N: 64, Master: 0,
			Slaves:     []cluster.HostID{1, 1, 1, 2, 2, 2},
			Assignment: a,
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed)
	}
	mm1 := run(MM1)
	mm2 := run(MM2)
	if mm2 <= mm1 {
		t.Fatalf("MM2 (%d) not slower than MM1 (%d) with 8KB pages; false sharing unmodelled", mm2, mm1)
	}
}

func TestSmallPagesNarrowMM1MM2Gap(t *testing.T) {
	// With 1 KB pages one row is one page: round-robin assignment no
	// longer causes false sharing, so MM2 ≈ MM1 (Figure 7).
	run := func(a Assignment, pageSize int) float64 {
		c := newCluster(t, 2, 4, pageSize)
		r := Register(c)
		res, err := r.Run(Config{
			N: 64, Master: 0,
			Slaves:     []cluster.HostID{1, 1, 1, 2, 2, 2},
			Assignment: a,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	gapLarge := run(MM2, 8192) / run(MM1, 8192)
	gapSmall := run(MM2, 1024) / run(MM1, 1024)
	if gapSmall >= gapLarge {
		t.Fatalf("small pages gap %.2f not below large pages gap %.2f", gapSmall, gapLarge)
	}
	if gapSmall > 1.35 {
		t.Fatalf("MM2/MM1 ratio %.2f with 1KB pages; expected near parity", gapSmall)
	}
}

func TestMoreThreadsImproveResponseTime(t *testing.T) {
	run := func(slaves []cluster.HostID) float64 {
		c := newCluster(t, 4, 4, 8192)
		r := Register(c)
		res, err := r.Run(Config{N: 128, Master: 0, Slaves: slaves})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	one := run([]cluster.HostID{1})
	four := run([]cluster.HostID{1, 2, 3, 4})
	if four >= one {
		t.Fatalf("4 threads (%.1fs) not faster than 1 (%.1fs)", four, one)
	}
	if one/four < 2 {
		t.Fatalf("speedup %.2f at 4 threads; expected ≥2", one/four)
	}
}

func TestSequentialBaseline(t *testing.T) {
	params := model.Default()
	ff := Sequential(&params, arch.Firefly, 256)
	sun := Sequential(&params, arch.Sun, 256)
	// 256³ × 2.7µs ≈ 45.3 s on a Firefly; 1.31× that on a Sun.
	if ff.Seconds() < 40 || ff.Seconds() > 50 {
		t.Fatalf("firefly sequential MM(256) = %.1fs, want ≈45s", ff.Seconds())
	}
	if ratio := sun.Seconds() / ff.Seconds(); ratio < 1.25 || ratio > 1.4 {
		t.Fatalf("sun/firefly ratio %.2f, want 1.31", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	c := newCluster(t, 1, 1, 8192)
	r := Register(c)
	if _, err := r.Run(Config{N: 0, Slaves: []cluster.HostID{1}}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := r.Run(Config{N: 8}); err == nil {
		t.Error("no slaves accepted")
	}
}

// columnStrideProduct is the multiplication as it was first written —
// j outer, k inner, walking down b's columns — kept as the reference
// the unit-stride kernel is compared against.
func columnStrideProduct(a, b []int32, n int) []int32 {
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum int32
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return c
}

// TestRowProductMatchesColumnStride: full-range operands, so nearly
// every product and sum overflows and must wrap exactly as before; the
// sizes around four exercise the four-k pass and its remainder.
func TestRowProductMatchesColumnStride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 4, 5, 255, 256} {
		a, b := make([]int32, n*n), make([]int32, n*n)
		for i := range a {
			a[i], b[i] = int32(rng.Uint32()), int32(rng.Uint32())
		}
		want := columnStrideProduct(a, b, n)
		got := multiplyLocal(a, b, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: c[%d][%d] = %d, want %d", n, i/n, i%n, got[i], want[i])
			}
		}
		// rowProduct overwrites whatever the output row held.
		row := make([]int32, n)
		for i := range row {
			row[i] = -1
		}
		rowProduct(row, a[:n], b)
		for j := range row {
			if row[j] != want[j] {
				t.Fatalf("n=%d: reused row, c[0][%d] = %d, want %d", n, j, row[j], want[j])
			}
		}
	}
}

// TestEveryWriteChunkStoresTheWholeRow: the product is computed once
// per row and stored chunk by chunk, so every chunking — whole rows,
// single elements, chunks that do and do not divide n — must leave the
// same C, verified against the local multiplication. (8 KB pages: at
// n = 255 a row is 1020 bytes, so rows and chunks straddle page ends.)
func TestEveryWriteChunkStoresTheWholeRow(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 255, 256} {
		for _, chunk := range []int{0, 1, 4, 7, n} {
			c := newCluster(t, 2, 2, 8192)
			res, err := Register(c).Run(Config{
				N: n, Master: 0, Slaves: []cluster.HostID{1, 2, 1},
				Assignment: MM2, WriteChunk: chunk, Verify: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("n=%d WriteChunk=%d: wrong product", n, chunk)
			}
		}
	}
}

// TestLastVMPageGroupReachesPastTheAllocation: at these sizes the
// matrices end inside a Sun 8 KB VM-page group whose remaining small
// pages nobody allocated. The Sun master's accesses to the tail used to
// demand those pages too and die in a handler ("asked to serve page 766
// it does not hold", page 370 at 2 KB).
func TestLastVMPageGroupReachesPastTheAllocation(t *testing.T) {
	for _, tc := range []struct{ n, pageSize int }{{255, 1024}, {250, 2048}} {
		c := newCluster(t, 2, 4, tc.pageSize)
		res, err := Register(c).Run(Config{
			N:      tc.n,
			Master: 0,
			Slaves: []cluster.HostID{1, 1, 2, 2},
			Verify: true,
		})
		if err != nil {
			t.Fatalf("N=%d at %d-byte pages: %v", tc.n, tc.pageSize, err)
		}
		if !res.Correct {
			t.Errorf("N=%d at %d-byte pages: distributed result differs from local multiplication", tc.n, tc.pageSize)
		}
	}
}

// TestRowStepMultipliesAnyOtherOperands feeds the slave's row step
// operands that differ from the canonical ones by one word or in
// dimension: each row must equal rowProduct on the operands given (and
// differ from the reference row, so a step that answered from the
// reference is caught). The canonical operands must give the reference
// product's rows.
func TestRowStepMultipliesAnyOtherOperands(t *testing.T) {
	const n, row = 16, 5
	ref := referenceFor(n)
	other := referenceFor(n - 4)
	aRow := func(m *reference, dim int) []int32 { return slices.Clone(m.a[row*dim:][:dim]) }
	flipB := slices.Clone(ref.b)
	flipB[7*n+3] ^= 1 << 9
	flipA := aRow(ref, n)
	flipA[7] ^= 1 << 9
	for _, c := range []struct {
		name string
		a, b []int32
	}{
		{"one word of B flipped", aRow(ref, n), flipB},
		{"one word of the A row flipped", flipA, ref.b},
		{"operands of another N", aRow(other, n-4), other.b},
	} {
		got := make([]int32, len(c.a))
		ref.rowStep(c.b)(got, c.a, row)
		want := make([]int32, len(c.a))
		rowProduct(want, c.a, c.b)
		if !slices.Equal(got, want) {
			t.Errorf("%s: row step differs from rowProduct on the same operands", c.name)
		}
		if slices.Equal(want, ref.c[row*n:][:n]) {
			t.Errorf("%s: the operands' product is the reference row; the case checks nothing", c.name)
		}
	}
	step := ref.rowStep(ref.b)
	got := make([]int32, n)
	for i := 0; i < n; i++ {
		step(got, ref.a[i*n:][:n], i)
		if !slices.Equal(got, ref.c[i*n:][:n]) {
			t.Fatalf("canonical row %d differs from the reference product", i)
		}
	}
}

// TestSkippedConversionStillMultiplied runs a Sun master with Firefly
// slaves under MutSkipConversion: every A and B word reaches the slaves
// byte-swapped, and their C comes back to the master byte-swapped, so
// the master must read exactly swap(swap(A) × swap(B)) — the product of
// what the DSM delivered, not the reference product of the canonical
// inputs.
func TestSkippedConversionStillMultiplied(t *testing.T) {
	const n = 64
	c, err := cluster.New(cluster.Config{
		Hosts:    []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly, CPUs: 2}, {Kind: arch.Firefly, CPUs: 2}},
		Seed:     42,
		PageSize: 8192,
		Mutation: dsm.MutSkipConversion,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := Register(c)
	res, err := r.Run(Config{N: n, Master: 0, Slaves: []cluster.HostID{1, 1, 2, 2}, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("skipped conversion verified against the canonical product")
	}
	got := make([]int32, n*n)
	c.Run(0, func(p *sim.Proc, h *cluster.Host) { h.DSM.ReadInt32s(p, r.cur.cm, got) })
	swap := func(v []int32) []int32 {
		out := make([]int32, len(v))
		for i, x := range v {
			out[i] = int32(bits.ReverseBytes32(uint32(x)))
		}
		return out
	}
	ref := referenceFor(n)
	if want := swap(multiplyLocal(swap(ref.a), swap(ref.b), n)); !slices.Equal(got, want) {
		t.Fatal("C read back is not the byte-swapped product of the byte-swapped inputs")
	}
}

// TestReferenceConcurrentFirstUse asks for one N from every sim.Each
// worker at once, the way concurrent sweeps do: all of them must get
// the one table, built once.
func TestReferenceConcurrentFirstUse(t *testing.T) {
	const n = 40
	referencesMu.Lock()
	delete(references, n) // make this the first use
	referencesMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := sim.Each(12, func(int) *reference { return referenceFor(n) })
	for i, ref := range got {
		if ref != got[0] {
			t.Fatalf("worker %d got a second table for N=%d", i, n)
		}
	}
	if !slices.Equal(got[0].c, multiplyLocal(got[0].a, got[0].b, n)) {
		t.Fatal("the shared table's product is wrong")
	}
}
