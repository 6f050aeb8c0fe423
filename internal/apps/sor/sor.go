// Package sor implements Jacobi grid relaxation (successive
// over-relaxation's data pattern) over the Mermaid DSM — the classic
// page-based-DSM stencil workload, added as an extension beyond the
// paper's two applications.
//
// The grid is split into horizontal row blocks, one per thread. Each
// iteration every thread recomputes its rows from the previous grid,
// which requires the boundary rows of its neighbours: those rows'
// pages replicate read-only across neighbouring hosts and are
// invalidated when their owner rewrites them — a steady, predictable
// page traffic of 2 boundary rows per thread per iteration, in contrast
// to MM's bulk replication and the PCB's one-shot distribution. A
// distributed barrier separates iterations; package apps runs the
// master/slave handshake around them.
//
// Values are float32: on a Firefly they live in memory as VAX
// F_floating and convert to IEEE on migration, exactly like the paper's
// numerical applications would.
package sor

import (
	"fmt"
	"slices"
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

// CellCost is the per-cell virtual compute cost of one Jacobi update on
// a Firefly (4 adds, 1 multiply on 1990 hardware).
const CellCost = 12 * time.Microsecond

// Config describes one relaxation run.
type Config struct {
	// W, H are the grid dimensions (W floats per row).
	W, H int
	// Iters is the number of Jacobi iterations.
	Iters int
	// Master is the coordinating host.
	Master cluster.HostID
	// Slaves places one worker thread per entry; H must divide evenly
	// enough that every thread gets at least one row.
	Slaves []cluster.HostID
	// Verify compares against a sequential relaxation.
	Verify bool
}

// Result reports a run's outcome; Correct is false only if Verify
// found a grid that differs from the sequential relaxation.
type Result = apps.Result

const (
	funcID  threads.FuncID = 0x534F // "SO"
	semDone uint32         = 0x534F
	barIter uint32         = 0x5352 // "SR"
)

type app struct {
	w, h, iters int
	grids       [2]dsm.Addr // double-buffered
	nslaves     int
}

// Runner executes relaxations on a registered cluster.
type Runner struct {
	c   *cluster.Cluster
	cur *app
}

// Register installs the SOR thread entry point. The barrier is defined
// at Run time (its party count depends on the slave count), so Register
// must be followed by exactly one Run per cluster.
func Register(c *cluster.Cluster) *Runner {
	r := &Runner{c: c}
	apps.Register(c, funcID, semDone, r.slave)
	return r
}

func (st *app) rowsFor(idx int) (lo, hi int) {
	// Interior rows 1..h-2 are distributed; boundary rows are fixed.
	interior := st.h - 2
	per := (interior + st.nslaves - 1) / st.nslaves
	lo = 1 + idx*per
	hi = min(lo+per, st.h-1)
	return lo, hi
}

// slave relaxes its row block: per iteration, read its rows plus the
// two neighbouring boundary rows from the source grid, compute, write
// to the destination grid, and synchronize at the barrier.
func (r *Runner) slave(t *threads.Thread, h *cluster.Host, idx int) {
	st := r.cur
	lo, hi := st.rowsFor(idx)
	if lo >= hi {
		// No rows for this thread; it still participates in barriers.
		for it := 0; it < st.iters; it++ {
			h.Sync.BarrierArrive(t.P, barIter)
		}
		return
	}
	w := st.w
	src := make([]float32, (hi-lo+2)*w)
	dst := make([]float32, (hi-lo)*w)
	for it := 0; it < st.iters; it++ {
		from := st.grids[it%2]
		to := st.grids[(it+1)%2]
		// Rows lo-1 .. hi (inclusive) of the source grid.
		h.DSM.ReadFloat32s(t.P, from+dsm.Addr(4*(lo-1)*w), src)
		for row := lo; row < hi; row++ {
			base := (row - lo + 1) * w
			for col := 1; col < w-1; col++ {
				dst[(row-lo)*w+col] = 0.25 * (src[base-w+col] + src[base+w+col] +
					src[base+col-1] + src[base+col+1])
			}
			// Fixed left/right boundary columns copy through.
			dst[(row-lo)*w] = src[base]
			dst[(row-lo)*w+w-1] = src[base+w-1]
		}
		t.Compute(time.Duration(hi-lo) * time.Duration(w) * CellCost)
		h.DSM.WriteFloat32s(t.P, to+dsm.Addr(4*lo*w), dst)
		h.Sync.BarrierArrive(t.P, barIter)
	}
}

// Run executes one relaxation.
func (r *Runner) Run(cfg Config) (Result, error) {
	if cfg.W < 3 || cfg.H < 3 || cfg.Iters < 1 || len(cfg.Slaves) == 0 {
		return Result{}, fmt.Errorf("sor: need W,H ≥ 3, Iters ≥ 1, and slaves")
	}
	r.c.DefineBarrier(barIter, 0, len(cfg.Slaves))
	w, ht := cfg.W, cfg.H
	init := initialGrid(w, ht)
	setup := func(p *sim.Proc, h *cluster.Host) error {
		st := &app{w: w, h: ht, iters: cfg.Iters, nslaves: len(cfg.Slaves)}
		var err error
		for g := range st.grids {
			if st.grids[g], err = h.DSM.Alloc(p, conv.Float32, w*ht); err != nil {
				return err
			}
		}
		r.cur = st
		h.DSM.WriteFloat32s(p, st.grids[0], init)
		h.DSM.WriteFloat32s(p, st.grids[1], init) // fixed boundaries in both buffers
		return nil
	}
	return apps.Run(r.c, cfg.Master, cfg.Slaves, funcID, semDone, setup, func(p *sim.Proc, h *cluster.Host) bool {
		final := make([]float32, w*ht)
		h.DSM.ReadFloat32s(p, r.cur.grids[cfg.Iters%2], final)
		return !cfg.Verify || slices.Equal(final, relaxLocal(init, w, ht, cfg.Iters))
	})
}

// initialGrid builds the boundary-condition grid: a hot top edge.
func initialGrid(w, h int) []float32 {
	g := make([]float32, w*h)
	for col := 0; col < w; col++ {
		g[col] = 100
	}
	return g
}

// relaxLocal is the sequential Jacobi reference.
func relaxLocal(init []float32, w, h, iters int) []float32 {
	a := make([]float32, len(init))
	b := make([]float32, len(init))
	copy(a, init)
	copy(b, init)
	for it := 0; it < iters; it++ {
		src, dst := a, b
		if it%2 == 1 {
			src, dst = b, a
		}
		for row := 1; row < h-1; row++ {
			for col := 1; col < w-1; col++ {
				dst[row*w+col] = 0.25 * (src[(row-1)*w+col] + src[(row+1)*w+col] +
					src[row*w+col-1] + src[row*w+col+1])
			}
			dst[row*w] = src[row*w]
			dst[row*w+w-1] = src[row*w+w-1]
		}
	}
	if iters%2 == 1 {
		return b
	}
	return a
}

// Sequential returns the modelled sequential relaxation time on one CPU
// of the given machine kind (no DSM, no threads, and so no cluster: the
// cost model is all it reads).
func Sequential(params *model.Params, kind arch.Kind, w, h, iters int) sim.Duration {
	cells := time.Duration(w) * time.Duration(h-2) * time.Duration(iters)
	return params.Scale(kind, cells*CellCost)
}
