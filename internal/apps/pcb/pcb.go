package pcb

import (
	"bytes"
	"fmt"
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

// Config describes one PCB inspection run.
type Config struct {
	// W, H are the board image dimensions in pixels. The paper's
	// 2 cm × 16 cm area corresponds to 256×2048 at 128 px/cm.
	W, H int
	// Master is the host running the master thread (a Sun workstation
	// with the bit-mapped display, in the paper's scenario).
	Master cluster.HostID
	// Slaves places one checking thread per entry.
	Slaves []cluster.HostID
	// Overlap is the stripe overlap in rows; zero means RequiredOverlap.
	Overlap int
	// Seed drives the synthetic board generator.
	Seed int64
	// Verify compares the distributed result with a sequential check.
	Verify bool
}

// Result reports a run's outcome; Correct is false only if Verify
// found a flaw image or count that differs from the sequential check.
type Result struct {
	apps.Result
	// FlawPixels is the number of violation pixels found.
	FlawPixels int
}

const funcID threads.FuncID = 0x5043 // "PC"

const semDone uint32 = 0x5043

type app struct {
	w, h, overlap int
	front, back   dsm.Addr
	flaws, counts dsm.Addr
	stripes       int
}

// Runner executes PCB inspections on a registered cluster.
type Runner struct {
	c   *cluster.Cluster
	cur *app
}

// Register installs the PCB thread entry point on a cluster.
func Register(c *cluster.Cluster) *Runner {
	r := &Runner{c: c}
	apps.Register(c, funcID, semDone, r.slave)
	return r
}

// stripeBounds returns the owned rows of stripe idx.
func (st *app) stripeBounds(idx int) (lo, hi int) {
	per := (st.h + st.stripes - 1) / st.stripes
	lo = idx * per
	hi = min(lo+per, st.h)
	return lo, hi
}

// slave checks one stripe: read the stripe's context rows of both
// images through DSM, run the real rule check, charge the calibrated
// per-pixel cost, and write back the flaw rows and the stripe count.
func (r *Runner) slave(t *threads.Thread, h *cluster.Host, idx int) {
	st := r.cur
	lo, hi := st.stripeBounds(idx)
	clo := max(0, lo-st.overlap)
	chi := min(st.h, hi+st.overlap)
	w := st.w

	// The thread's buffers hold only its context rows clo..chi — its
	// stripe as a board of its own, which is all CheckStripe looks at —
	// so a run's memory does not grow with threads × board.
	rows, slo, shi := chi-clo, lo-clo, hi-clo
	front := make([]byte, w*rows)
	back := make([]byte, w*rows)
	h.DSM.ReadBytes(t.P, st.front+dsm.Addr(clo*w), front)
	h.DSM.ReadBytes(t.P, st.back+dsm.Addr(lo*w), back[slo*w:shi*w])

	flaws := make([]byte, w*rows)
	flawCount, copperCount := CheckStripe(front, back, flaws, w, rows, slo, shi, st.overlap)

	// The paper's checking cost: every examined pixel (including the
	// overlap context, which is the striping's extra work) plus a
	// surcharge per copper pixel — feature density imbalances stripes.
	params := r.c.Params
	cost := time.Duration(chi-clo) * time.Duration(w) * params.PCBPixelCost
	cost += time.Duration(copperCount) * params.PCBFeatureCost
	t.Compute(cost)

	h.DSM.WriteBytes(t.P, st.flaws+dsm.Addr(lo*w), flaws[slo*w:shi*w])
	h.DSM.WriteInt32s(t.P, st.counts+dsm.Addr(4*idx), []int32{int32(flawCount)})
}

// Run executes one inspection and returns its result.
func (r *Runner) Run(cfg Config) (Result, error) {
	if cfg.W <= 0 || cfg.H <= 0 || len(cfg.Slaves) == 0 {
		return Result{}, fmt.Errorf("pcb: need positive dimensions and at least one slave")
	}
	overlap := cfg.Overlap
	if overlap == 0 {
		overlap = RequiredOverlap
	}
	board := GenerateBoard(cfg.W, cfg.H, cfg.Seed)
	n := cfg.W * cfg.H
	setup := func(p *sim.Proc, host *cluster.Host) error {
		st := &app{w: cfg.W, h: cfg.H, overlap: overlap, stripes: len(cfg.Slaves)}
		var err error
		for _, a := range []*dsm.Addr{&st.front, &st.back, &st.flaws} {
			if *a, err = host.DSM.Alloc(p, conv.Char, n); err != nil {
				return err
			}
		}
		if st.counts, err = host.DSM.Alloc(p, conv.Int32, len(cfg.Slaves)); err != nil {
			return err
		}
		r.cur = st
		host.DSM.WriteBytes(p, st.front, board.Front)
		host.DSM.WriteBytes(p, st.back, board.Back)
		return nil
	}
	var res Result
	var err error
	res.Result, err = apps.Run(r.c, cfg.Master, cfg.Slaves, funcID, semDone, setup, func(p *sim.Proc, host *cluster.Host) bool {
		got := make([]byte, n)
		host.DSM.ReadBytes(p, r.cur.flaws, got)
		cnts := make([]int32, len(cfg.Slaves))
		host.DSM.ReadInt32s(p, r.cur.counts, cnts)
		for _, c := range cnts {
			res.FlawPixels += int(c)
		}
		if !cfg.Verify {
			return true
		}
		want, wantCount, _ := CheckSequential(board)
		return res.FlawPixels == wantCount && bytes.Equal(got, want)
	})
	return res, err
}

// Sequential returns the modelled sequential inspection time on one CPU
// of the given machine kind (whole board, no overlap, no DSM, and so no
// cluster: the cost model is all it reads).
func Sequential(params *model.Params, kind arch.Kind, w, h int, seed int64) sim.Duration {
	board := GenerateBoard(w, h, seed)
	_, _, copperCount := CheckSequential(board)
	cost := time.Duration(w)*time.Duration(h)*params.PCBPixelCost +
		time.Duration(copperCount)*params.PCBFeatureCost
	return params.Scale(kind, cost)
}
