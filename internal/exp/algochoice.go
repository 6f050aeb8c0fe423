package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// AlgorithmChoiceRow compares the three coherence algorithms on one
// memory-access pattern, reproducing the claim behind Mermaid's
// user-level design: "the correct choice of algorithm was often
// dictated by the memory access behavior of the application" (§2.1,
// citing the authors' companion study).
type AlgorithmChoiceRow struct {
	// Workload names the access pattern.
	Workload string
	// MRSWS, MigrationS, CentralS, UpdateS are the run times in seconds.
	MRSWS, MigrationS, CentralS, UpdateS float64
}

// AlgorithmChoice runs three access patterns under each policy:
//
//   - read-shared: every host repeatedly reads a large region that one
//     host wrote (MRSW replicates; migration ping-pongs the only copy;
//     central pays a remote op per read batch);
//   - write-private: each host updates only its own region (MRSW and
//     migration settle to local access; central keeps paying per op);
//   - hotspot: all hosts update single words of one shared page (page
//     algorithms ping-pong an 8 KB page per update; central touches
//     four bytes per op).
func AlgorithmChoice() []AlgorithmChoiceRow {
	workloads := []struct {
		name string
		run  func(c *cluster.Cluster) // orchestrated inside c.Run's main
	}{
		{name: "read-shared", run: runReadShared},
		{name: "write-private", run: runWritePrivate},
		{name: "hotspot", run: runHotspot},
		{name: "producer-consumer", run: runProducerConsumer},
	}
	policies := []dsm.Policy{dsm.PolicyMRSW, dsm.PolicyMigration, dsm.PolicyCentral, dsm.PolicyUpdate}
	// Per workload: one run under each policy, in that order.
	secs := sim.Each(len(workloads)*len(policies), func(i int) float64 {
		c := must(cluster.New(cluster.Config{Hosts: sunsAroundFireflies(), Seed: 1, Policy: policies[i%len(policies)]}))
		defer c.Close()
		start := c.K.Now()
		workloads[i/len(policies)].run(c)
		return c.K.Now().Sub(start).Seconds()
	})
	rows := make([]AlgorithmChoiceRow, len(workloads))
	for i, w := range workloads {
		s := secs[i*len(policies):]
		rows[i] = AlgorithmChoiceRow{Workload: w.name, MRSWS: s[0], MigrationS: s[1], CentralS: s[2], UpdateS: s[3]}
	}
	return rows
}

// spawnPerHost runs fn concurrently on every host and waits.
func spawnPerHost(c *cluster.Cluster, p *sim.Proc, fn func(h *cluster.Host, p *sim.Proc)) {
	done := sim.NewSemaphore(c.K, 0)
	for _, h := range c.Hosts {
		h := h
		c.K.Spawn("w", func(wp *sim.Proc) {
			fn(h, wp)
			done.V()
		})
	}
	for range c.Hosts {
		done.P(p)
	}
}

func runReadShared(c *cluster.Cluster) {
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		const n = 16384 // 64 KB of ints
		addr := must(h0.DSM.Alloc(p, conv.Int32, n))
		h0.DSM.WriteInt32s(p, addr, make([]int32, n))
		spawnPerHost(c, p, func(h *cluster.Host, wp *sim.Proc) {
			buf := make([]int32, n)
			for round := 0; round < 5; round++ {
				h.DSM.ReadInt32s(wp, addr, buf)
			}
		})
	})
}

func runWritePrivate(c *cluster.Cluster) {
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		const per = 2048 // one 8 KB page per host
		// Padding page so no host's private page happens to be managed
		// (served) by that host itself.
		must(h0.DSM.Alloc(p, conv.Int32, per))
		addr := must(h0.DSM.Alloc(p, conv.Int32, per*len(c.Hosts)))
		spawnPerHost(c, p, func(h *cluster.Host, wp *sim.Proc) {
			base := addr + dsm.Addr(4*per*int(h.ID))
			buf := make([]int32, per)
			for round := 0; round < 5; round++ {
				for i := range buf {
					buf[i] += int32(h.ID)
				}
				h.DSM.WriteInt32s(wp, base, buf)
			}
		})
	})
}

func runHotspot(c *cluster.Cluster) {
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr := must(h0.DSM.Alloc(p, conv.Int32, 64)) // one hot page
		h0.DSM.WriteInt32s(p, addr, make([]int32, 64))
		spawnPerHost(c, p, func(h *cluster.Host, wp *sim.Proc) {
			slot := addr + dsm.Addr(4*int(h.ID))
			for round := 0; round < 25; round++ {
				// Work between updates: the hot page cannot stay parked
				// on one host across rounds.
				wp.Sleep(30 * time.Millisecond)
				v := h.DSM.ReadInt32(wp, slot)
				h.DSM.WriteInt32(wp, slot, v+1)
			}
		})
	})
}

// runProducerConsumer has one host periodically publishing a small
// record that every other host polls frequently — read-mostly with
// small writes, the write-update policy's home turf: MRSW invalidates
// all readers on each publish and they re-fault whole pages.
func runProducerConsumer(c *cluster.Cluster) {
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr := must(h0.DSM.Alloc(p, conv.Int32, 16))
		h0.DSM.WriteInt32s(p, addr, make([]int32, 16))
		done := sim.NewSemaphore(c.K, 0)
		const (
			rounds = 20
			polls  = 200
		)
		c.K.Spawn("producer", func(wp *sim.Proc) {
			for i := 1; i <= rounds; i++ {
				wp.Sleep(20 * time.Millisecond)
				c.Hosts[0].DSM.WriteInt32s(wp, addr, []int32{int32(i)})
			}
			done.V()
		})
		for hid := 1; hid < len(c.Hosts); hid++ {
			h := c.Hosts[hid]
			c.K.Spawn("consumer", func(wp *sim.Proc) {
				var v [1]int32
				for i := 0; i < polls; i++ {
					h.DSM.ReadInt32s(wp, addr, v[:])
					wp.Sleep(2 * time.Millisecond) // process the value
				}
				done.V()
			})
		}
		for i := 0; i < len(c.Hosts); i++ {
			done.P(p)
		}
	})
}

// AlgorithmChoiceTable formats the comparison.
func AlgorithmChoiceTable(rows []AlgorithmChoiceRow) *Table {
	t := &Table{
		Title:  "Coherence algorithm choice by access pattern (§2.1), seconds",
		Header: []string{"workload", "MRSW", "migration", "central", "update", "best"},
	}
	for _, r := range rows {
		best := "MRSW"
		bv := r.MRSWS
		if r.MigrationS < bv {
			best, bv = "migration", r.MigrationS
		}
		if r.CentralS < bv {
			best, bv = "central", r.CentralS
		}
		if r.UpdateS < bv {
			best = "update"
		}
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%.2f", r.MRSWS),
			fmt.Sprintf("%.2f", r.MigrationS),
			fmt.Sprintf("%.2f", r.CentralS),
			fmt.Sprintf("%.2f", r.UpdateS),
			best,
		})
	}
	return t
}
