// Package matmul implements the paper's parallel matrix multiplication
// application (§3.2, §3.3) on the Mermaid DSM.
//
// The two argument matrices A and B are read-shared (and so replicate
// across hosts); the result matrix C is write-shared. Slave threads each
// compute a set of rows of C and the master implicitly receives the
// result through DSM when it reads C at the end (package apps runs
// the master/slave handshake).
//
// The compute is charged as calibrated virtual time; the host
// arithmetic only supplies the bytes that travel through the DSM. Every
// run multiplies the same canonical inputs of its N, so their product
// is computed once per N (reference) and a slave copies a row from it
// when the operands it read through the DSM are the canonical ones —
// any other operands, corrupted ones included, get the real arithmetic.
//
// Two work assignments are provided, as in §3.3: MM1 gives each thread a
// contiguous block of rows; MM2 assigns rows round-robin, deliberately
// creating data contention on C's pages — under the largest page size
// algorithm an 8 KB page then holds rows belonging to up to eight
// different threads, the false-sharing pattern whose thrashing the paper
// studies.
package matmul

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Assignment selects the row-distribution policy.
type Assignment int

const (
	// MM1 assigns each thread a contiguous block of rows.
	MM1 Assignment = iota + 1
	// MM2 assigns rows to threads round-robin.
	MM2
)

// String names the assignment.
func (a Assignment) String() string {
	if a == MM1 {
		return "MM1"
	}
	return "MM2"
}

// Config describes one matrix multiplication run.
type Config struct {
	// N is the matrix dimension (the paper uses 256×256 integers).
	N int
	// Master is the host running the master thread.
	Master cluster.HostID
	// Slaves places one slave thread per entry (repeats allowed: a
	// Firefly can run several threads).
	Slaves []cluster.HostID
	// Assignment selects MM1 or MM2 (default MM1).
	Assignment Assignment
	// Verify compares the DSM result against the local multiplication
	// of the inputs (the reference product of this N).
	Verify bool
	// JitterPct perturbs each row's compute time by ±JitterPct (seeded
	// by the cluster), modelling the scheduling noise behind the
	// run-to-run fluctuations the paper reports for thrashing runs.
	JitterPct float64
	// WriteChunk is how many result elements a thread writes per DSM
	// store burst. Zero writes whole rows at once. The original system
	// stored each element as it was computed, so a contended page could
	// be stolen mid-row; small chunks reproduce that interleaving and
	// with it the full severity of §3.3's thrashing.
	WriteChunk int
	// AcquireRelease brackets the shared-data phases in explicit
	// acquire/release pairs: the master releases after initializing A
	// and B, each slave acquires before its first read, and the
	// existing done-semaphore handshake releases the slaves' C rows to
	// the master. Sequentially consistent policies do not need the
	// brackets (and the extra semaphore traffic is pure overhead), but
	// under dsm.PolicyRC writes only propagate along them — RC runs
	// must set this.
	AcquireRelease bool
}

// Result reports a run's outcome; Correct is false only if Verify
// found a wrong C.
type Result = apps.Result

// funcID is the registered entry point for slave threads; apps in one
// process must not collide, so matmul claims 0x4D4D ("MM").
const funcID threads.FuncID = 0x4D4D

const semDone uint32 = 0x4D4D

// semInit is the init-phase release bracket (Config.AcquireRelease):
// the master Vs it once per slave after filling A and B, each slave Ps
// it before its first shared read. Defined unconditionally — an unused
// semaphore generates no events, so runs without the bracket are
// unchanged by its existence.
const semInit uint32 = 0x4D4E

// app carries the shared-run state the slave closure needs.
type app struct {
	n        int
	ref      *reference
	a, b, cm dsm.Addr
	assign   Assignment
	nslaves  int
	jitter   float64
	chunk    int
	bracket  bool
}

// Register installs matmul's thread entry point and synchronization on
// a cluster. Call once per cluster before Run.
func Register(c *cluster.Cluster) *Runner {
	r := &Runner{c: c}
	c.DefineSemaphore(semInit, 0, 0)
	apps.Register(c, funcID, semDone, r.slave)
	return r
}

// Runner executes matrix multiplications on a registered cluster.
type Runner struct {
	c   *cluster.Cluster
	cur *app
}

// rowsFor lists the rows thread idx computes under the assignment.
func (st *app) rowsFor(idx int) []int {
	var rows []int
	switch st.assign {
	case MM2:
		for r := idx; r < st.n; r += st.nslaves {
			rows = append(rows, r)
		}
	default:
		per := (st.n + st.nslaves - 1) / st.nslaves
		lo := idx * per
		hi := min(lo+per, st.n)
		for r := lo; r < hi; r++ {
			rows = append(rows, r)
		}
	}
	return rows
}

// slave is the worker body: read B (replicates), then per assigned row
// read A's row, compute it while charging the calibrated MAC cost, and
// write the result row. The integer arithmetic runs once per distinct
// input: rows of the canonical inputs come from the reference product.
func (r *Runner) slave(t *threads.Thread, h *cluster.Host, idx int) {
	st := r.cur
	n := st.n

	if st.bracket {
		h.Sync.P(t.P, semInit) // acquire the master's A/B initialization
	}
	bRow := make([]int32, n*n)
	h.DSM.ReadInt32s(t.P, st.b, bRow) // replicate B read-only
	step := st.ref.rowStep(bRow)
	aRow := make([]int32, n)
	cRow := make([]int32, n)
	rowCost := time.Duration(n*n) * r.c.Params.MACCost

	chunk := st.chunk
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	for _, row := range st.rowsFor(idx) {
		h.DSM.ReadInt32s(t.P, st.a+dsm.Addr(4*n*row), aRow)
		// The product depends only on this thread's private copies, so
		// it is computed once, at unit stride. The stores still go
		// chunk by chunk with the compute charged between them — each
		// store may fault if another thread took the page meanwhile.
		step(cRow, aRow, row)
		for j0 := 0; j0 < n; j0 += chunk {
			j1 := min(j0+chunk, n)
			cost := rowCost * time.Duration(j1-j0) / time.Duration(n)
			if st.jitter > 0 {
				f := 1 + st.jitter*(2*r.c.K.Rand().Float64()-1)
				cost = time.Duration(float64(cost) * f)
			}
			t.Compute(cost)
			h.DSM.WriteInt32s(t.P, st.cm+dsm.Addr(4*(n*row+j0)), cRow[j0:j1])
		}
	}
}

// Run executes one multiplication and returns its result. The master
// fills A and B, starts the slaves, waits for them, and reads C back.
func (r *Runner) Run(cfg Config) (Result, error) {
	if cfg.N <= 0 || len(cfg.Slaves) == 0 {
		return Result{}, fmt.Errorf("matmul: need N>0 and at least one slave")
	}
	if cfg.Assignment == 0 {
		cfg.Assignment = MM1
	}
	n := cfg.N
	setup := func(p *sim.Proc, h *cluster.Host) error {
		st := &app{
			n: n, assign: cfg.Assignment, nslaves: len(cfg.Slaves),
			jitter: cfg.JitterPct, chunk: cfg.WriteChunk, bracket: cfg.AcquireRelease,
		}
		var err error
		for _, m := range []*dsm.Addr{&st.a, &st.b, &st.cm} {
			if *m, err = h.DSM.Alloc(p, conv.Int32, n*n); err != nil {
				return err
			}
		}
		st.ref = referenceFor(n)
		r.cur = st
		h.DSM.WriteInt32s(p, st.a, st.ref.a)
		h.DSM.WriteInt32s(p, st.b, st.ref.b)
		if cfg.AcquireRelease {
			// Release the initialized matrices: the first V pushes the
			// open interval's diffs home; each slave's P acquires them.
			for range cfg.Slaves {
				h.Sync.V(p, semInit)
			}
		}
		return nil
	}
	return apps.Run(r.c, cfg.Master, cfg.Slaves, funcID, semDone, setup, func(p *sim.Proc, h *cluster.Host) bool {
		got := make([]int32, n*n)
		h.DSM.ReadInt32s(p, r.cur.cm, got)
		return !cfg.Verify || slices.Equal(got, r.cur.ref.c)
	})
}

// reference is the canonical input pair of one N and its product c.
// It is shared by every run of that N, in every cluster and on every
// goroutine, and never written after it is built.
type reference struct {
	a, b, c []int32
}

// references holds one reference per N, built on first use.
var (
	referencesMu sync.Mutex
	references   = make(map[int]*reference)
)

// referenceFor returns the reference of dimension n, building it on the
// first call: the inputs from a fixed xorshift sequence (A and B
// interleaved, values 0–96) and their product from multiplyLocal.
func referenceFor(n int) *reference {
	referencesMu.Lock()
	defer referencesMu.Unlock()
	if ref, ok := references[n]; ok {
		return ref
	}
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	rng := uint32(0x9e3779b9)
	next := func() int32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return int32(rng % 97)
	}
	for i := range a {
		a[i] = next()
		b[i] = next()
	}
	ref := &reference{a: a, b: b, c: multiplyLocal(a, b, n)}
	references[n] = ref
	return ref
}

// rowStep returns a slave's row product for the B it read:
// step(out, aRow, row) sets out = aRow × b for row number row. When b
// is the reference's B (checked here, once per slave) and aRow is that
// row of the reference's A, the row is copied from the reference
// product; any other operands are multiplied.
func (ref *reference) rowStep(b []int32) func(out, aRow []int32, row int) {
	sameB := slices.Equal(b, ref.b)
	return func(out, aRow []int32, row int) {
		n := len(out)
		if sameB && slices.Equal(aRow, ref.a[row*n:][:n]) {
			copy(out, ref.c[row*n:][:n])
			return
		}
		rowProduct(out, aRow, b)
	}
}

// rowProduct sets out[j] = Σk a[k]·b[k·n+j] for n = len(out): one row
// of A times the n×n matrix b. k is the outer loop, four at a time, so
// every pass walks rows of b and out at unit stride; int32 arithmetic
// wraps and is associative, so the order of the sum changes no bit.
func rowProduct(out, a, b []int32) {
	n := len(out)
	clear(out)
	k := 0
	for ; k+4 <= n; k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		b0, b1 := b[k*n:][:n], b[(k+1)*n:][:n]
		b2, b3 := b[(k+2)*n:][:n], b[(k+3)*n:][:n]
		for j := range out {
			out[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; k < n; k++ {
		ak, bk := a[k], b[k*n:][:n]
		for j := range out {
			out[j] += ak * bk[j]
		}
	}
}

// multiplyLocal is the sequential reference multiplication.
func multiplyLocal(a, b []int32, n int) []int32 {
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		rowProduct(c[i*n:(i+1)*n], a[i*n:(i+1)*n], b)
	}
	return c
}

// Sequential returns the modelled sequential execution time of an N×N
// multiplication on one CPU of the given machine kind — the baseline
// the paper's speedups are measured against (no DSM, no threads, and so
// no cluster: the cost model is all it reads).
func Sequential(params *model.Params, kind arch.Kind, n int) sim.Duration {
	return params.Scale(kind, time.Duration(n)*time.Duration(n)*time.Duration(n)*params.MACCost)
}
