package exp

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// PartitionAvailabilityRow measures one replication engine's behavior
// while a 5 s partition cuts off a replica-holding host: how many
// operations the majority component completed while the cut was open.
type PartitionAvailabilityRow struct {
	// Policy names the engine.
	Policy string
	// CoordReads counts coordinator (host 0) page reads that completed
	// inside the partition window.
	CoordReads int
	// Writes counts majority-side writer operations that completed
	// inside the window.
	Writes int
	// Errors counts majority-side operations that *failed* inside the
	// window (e.g. a page whose only copy is stranded on the cut host).
	Errors int
}

// PartitionAvailability runs the same workload under every replication
// engine: two writers (hosts 2, 3) each updating their own page every
// 100 ms, the coordinator (host 0) polling both pages every 100 ms,
// and host 1 — which read both pages just before the cut, so it holds
// a fresh replica (and, under migration, the only copy) — partitioned
// away for the 5 s window [1 s, 6 s). Failure detection is on, so
// engines that block on the unreachable replica-holder resume once the
// detector declares it dead (~2 s of silence); the quorum engine never
// blocks because a majority of replicas stays reachable throughout.
func PartitionAvailability() []PartitionAvailabilityRow {
	const (
		cutFrom = 1 * time.Second
		cutTo   = 6 * time.Second
		horizon = 7 * time.Second
		period  = 100 * time.Millisecond
		// Writers and coordinator go quiet around the cut onset while
		// the victim re-reads both pages: whatever engine-specific state
		// a reader acquires (a copyset entry, update membership, or —
		// under migration — the only copy itself) is guaranteed to still
		// be on the victim when the cut lands, instead of being
		// invalidated or migrated back by a later majority-side op.
		quietFrom = cutFrom - 100*time.Millisecond
		quietTo   = cutFrom + 100*time.Millisecond
	)
	policies := []struct {
		name string
		pol  dsm.Policy
	}{
		{"mrsw", dsm.PolicyMRSW},
		{"migration", dsm.PolicyMigration},
		{"central", dsm.PolicyCentral},
		{"update", dsm.PolicyUpdate},
		{"quorum", dsm.PolicyQuorum},
	}
	return sim.Each(len(policies), func(i int) PartitionAvailabilityRow {
		pc := policies[i]
		row := PartitionAvailabilityRow{Policy: pc.name}
		plan := &netsim.FaultPlan{
			Partitions: []netsim.Partition{{
				Window: netsim.Window{From: sim.Time(cutFrom), Until: sim.Time(cutTo)},
				Group:  []netsim.HostID{1},
			}},
		}
		c := must(cluster.New(cluster.Config{
			Hosts: []cluster.HostSpec{
				{Kind: arch.Sun},
				{Kind: arch.Firefly},
				{Kind: arch.Sun},
				{Kind: arch.Firefly},
				{Kind: arch.Sun},
			},
			Seed:             1,
			Policy:           pc.pol,
			Directory:        dsm.DirCentral,
			FailureDetection: true,
			FaultPlan:        plan,
		}))
		inWindow := func() bool {
			now := c.K.Now()
			return now >= sim.Time(cutFrom) && now < sim.Time(cutTo)
		}
		quiet := func(p *sim.Proc) {
			if now := c.K.Now(); now >= sim.Time(quietFrom) && now < sim.Time(quietTo) {
				p.Sleep(time.Duration(sim.Time(quietTo).Sub(now)))
			}
		}
		c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
			var pages [2]dsm.Addr
			for i := range pages {
				pages[i] = must(h0.DSM.Alloc(p, conv.Int32, 2))
			}
			done := sim.NewSemaphore(c.K, 0)
			for w := 0; w < 2; w++ {
				w := w
				host := c.Hosts[w+2]
				c.K.Spawn(fmt.Sprintf("avail-writer%d", w), func(wp *sim.Proc) {
					defer done.V()
					for i := int32(1); c.K.Now() < sim.Time(horizon); i++ {
						quiet(wp)
						err := host.DSM.WriteInt32sE(wp, pages[w], []int32{i, i})
						if inWindow() {
							if err == nil {
								row.Writes++
							} else {
								row.Errors++
							}
						}
						wp.Sleep(period)
					}
				})
			}
			// The victim seeds its replicas right up to the cut: under
			// MRSW/update it joins both copysets (so in-window writes
			// must invalidate or update an unreachable host), and under
			// migration it walks away with the only copy.
			c.K.Spawn("avail-victim", func(vp *sim.Proc) {
				defer done.V()
				vp.Sleep(quietFrom)
				for c.K.Now() < sim.Time(cutFrom) {
					for w := 0; w < 2; w++ {
						var pair [2]int32
						_ = c.Hosts[1].DSM.ReadInt32sE(vp, pages[w], pair[:])
					}
					// A cached re-read costs no virtual time; tick the
					// clock so the loop terminates at the cut.
					vp.Sleep(5 * time.Millisecond)
				}
			})
			for c.K.Now() < sim.Time(horizon) {
				quiet(p)
				for w := 0; w < 2; w++ {
					var pair [2]int32
					err := h0.DSM.ReadInt32sE(p, pages[w], pair[:])
					if inWindow() {
						if err == nil {
							row.CoordReads++
						} else {
							row.Errors++
						}
					}
				}
				p.Sleep(period)
			}
			for i := 0; i < 3; i++ {
				done.P(p)
			}
		})
		c.Close()
		return row
	})
}

// PartitionAvailabilityTable formats the rows.
func PartitionAvailabilityTable(rows []PartitionAvailabilityRow) *Table {
	t := &Table{
		Title:  "Partition availability (§3.4 extension): majority-side ops completed during a 5 s cut of a replica holder",
		Header: []string{"engine", "coord reads", "writes", "errors"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Policy,
			fmt.Sprintf("%d", r.CoordReads),
			fmt.Sprintf("%d", r.Writes),
			fmt.Sprintf("%d", r.Errors),
		})
	}
	return t
}
