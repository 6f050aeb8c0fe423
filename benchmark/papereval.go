package main

// paper-eval: the section list of a default mermaid-bench run, in
// process. It is the run people wait for, so there is no warm-up and
// the unit of work is one result row (one simulated measurement).

import (
	"math"
	"time"

	"repro/internal/exp"
)

// paperAcc accumulates one iteration's rows.
type paperAcc struct {
	out *iterOut
	dg  digest
}

// row accounts one result row: simulated seconds, the output check, and
// the digest.
func (a *paperAcc) row(simS float64, ok bool, what string, v any) {
	a.out.simS += simS
	a.out.ops++
	a.out.check(ok && simS > 0 && !math.IsInf(simS, 0) && !math.IsNaN(simS), "paper-eval %s: %+v", what, v)
	a.dg.add(v)
}

func (a *paperAcc) points(what string, pts []exp.FigPoint) {
	for _, p := range pts {
		a.row(p.Seconds, p.Threads > 0, what, p)
	}
}

// within reports |got − want| ≤ tol·want.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func paperEval(cfg runCfg) iterOut {
	out := newIterOut()
	a := &paperAcc{out: &out, dg: newDigest()}
	thrashSeeds := make([]int64, cfg.n(5))
	for i := range thrashSeeds {
		thrashSeeds[i] = cfg.seed + int64(i)
	}

	// The tolerances are the ones internal/exp's own tests hold the
	// tables to: Table 1 is a calibration input, Tables 2–4 are sums
	// through the protocol.
	sections := []struct {
		name string
		run  func()
	}{
		{"tables", func() {
			for _, r := range exp.Table1() {
				a.row(r.MS/1e3, math.Abs(r.MS-r.PaperMS) <= 0.01, "table 1", r)
			}
			for _, r := range exp.Table2() {
				a.row(r.MS/1e3, within(r.MS, r.PaperMS, 0.10), "table 2", r)
			}
			for _, r := range exp.Table3() {
				a.row(r.MS/1e3, within(r.MS, r.PaperMS, 0.12), "table 3", r)
			}
			for _, r := range exp.Table4() {
				a.row(r.MS/1e3, within(r.MS, r.PaperMS, 0.20), "table 4", r)
			}
		}},
		{"f3", func() {
			r := exp.Figure3(cfg.n(6))
			a.points("figure 3 physical", r.Physical)
			a.points("figure 3 distributed", r.Distributed)
		}},
		{"f4", func() { a.points("figure 4", exp.Figure4(cfg.n(16))) }},
		{"f5", func() {
			for _, p := range exp.Figure5(cfg.n(12)) {
				a.row(p.Seconds, p.Speedup > 0, "figure 5", p)
			}
		}},
		{"f6", func() {
			r := exp.Figure6(cfg.n(8))
			a.points("figure 6 large", r.Large)
			a.points("figure 6 small", r.Small)
		}},
		{"f7", func() {
			r := exp.Figure7(cfg.n(8))
			a.points("figure 7 MM1", r.MM1)
			a.points("figure 7 MM2", r.MM2)
		}},
		{"psweep", func() {
			for _, p := range exp.PageSizeSweep(cfg.n(8)) {
				a.row(p.MM1S, true, "page-size sweep MM1", p)
				a.row(p.MM2S, true, "page-size sweep MM2", p)
			}
		}},
		{"thrash", func() {
			for _, r := range exp.Thrashing([]int{cfg.n(6), cfg.n(8), cfg.n(12)}, thrashSeeds) {
				a.row(r.MeanS*float64(len(thrashSeeds)), r.MinS <= r.MeanS && r.MeanS <= r.MaxS, "thrashing", r)
			}
		}},
		{"ovh", func() {
			for _, r := range exp.SingleThreadOverhead() {
				a.row(r.DSMS, r.SequentialS > 0, "single-thread overhead", r)
			}
		}},
		{"abl", func() {
			sk := exp.AblationSameKindSource()
			a.row(sk.BaselineS+sk.TunedS, sk.TunedConv <= sk.BaselineConv, "same-kind source", sk)
			ss := exp.SyncStyles(cfg.n(10))
			a.row(ss.SpinlockS+ss.SemaphoreS, true, "sync styles", ss)
			mp := exp.ManagerPlacement()
			a.row(mp.DistributedS+mp.CentralS, true, "manager placement", mp)
			for _, r := range exp.AlgorithmChoice() {
				a.row(r.MRSWS+r.MigrationS+r.CentralS+r.UpdateS, true, "algorithm choice", r)
			}
			for _, r := range exp.InvalidationScaling([]int{1, 3, 5, 10, 14}) {
				a.row((r.BroadcastMS+r.UnicastMS)/1e3, r.BroadcastFrames <= r.UnicastFrames, "invalidation scaling", r)
			}
		}},
	}
	for _, s := range sections {
		id := cfg.tr.begin("exp."+s.name, -1)
		t0 := time.Now()
		s.run()
		out.layer["exp."+s.name+"_s"] = time.Since(t0).Seconds()
		cfg.tr.end(id)
	}
	a.dg.add(out.simS)
	out.digest = a.dg.sum()
	return out
}
