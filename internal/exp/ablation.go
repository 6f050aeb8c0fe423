package exp

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/sim"
)

// SyncStyleResult compares synchronizing through atomic operations on
// shared memory (a spinlock on a DSM word) with the distributed
// semaphore facility, validating §2.2's design rationale: "In practice
// … this would lead to repeated movement of (large) DSM pages between
// the hosts involved."
type SyncStyleResult struct {
	// SpinlockS and SemaphoreS are the run times of the same critical-
	// section workload under each style.
	SpinlockS, SemaphoreS float64
	// SpinlockTransfers and SemaphoreTransfers count page bodies moved.
	SpinlockTransfers, SemaphoreTransfers int
}

// SyncStyles runs `rounds` critical sections from each of four hosts,
// once with a test-and-set spinlock on a shared word and once with a
// distributed semaphore.
func SyncStyles(rounds int) SyncStyleResult {
	res := sim.Each(2, func(i int) FigPoint { return runSyncStyle(rounds, i == 0) })
	return SyncStyleResult{
		SpinlockS: res[0].Seconds, SpinlockTransfers: res[0].Transfers,
		SemaphoreS: res[1].Seconds, SemaphoreTransfers: res[1].Transfers,
	}
}

// runSyncStyle returns the workload's run time and the page bodies it
// moved.
func runSyncStyle(rounds int, spinlock bool) FigPoint {
	hosts := sunsAroundFireflies()
	c := must(cluster.New(cluster.Config{Hosts: hosts, Seed: 1}))
	defer c.Close()
	const (
		semDone  = 1
		semMutex = 2
	)
	c.DefineSemaphore(semDone, 0, 0)
	c.DefineSemaphore(semMutex, 0, 1)

	// The workers run as bare simulation processes (one per host); the
	// comparison is about synchronization traffic, not thread
	// scheduling. Work between critical sections keeps the lock's page
	// from staying parked on one host, as in any real mutual-exclusion
	// workload.
	var lockAddr, counterAddr dsm.Addr

	worker := func(h *cluster.Host, p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(60 * time.Millisecond) // non-critical work
			if spinlock {
				// Test-and-set loop on a shared word: every attempt is
				// a write fault that steals the lock's page (§2.2's
				// "repeated movement of (large) DSM pages").
				for h.DSM.AtomicSwapInt32(p, lockAddr, 1) != 0 {
					p.Sleep(time.Millisecond) // backoff
				}
			} else {
				h.Sync.P(p, semMutex)
			}
			v := h.DSM.ReadInt32(p, counterAddr)
			p.Sleep(200 * time.Microsecond) // the critical section
			h.DSM.WriteInt32(p, counterAddr, v+1)
			if spinlock {
				h.DSM.AtomicSwapInt32(p, lockAddr, 0)
			} else {
				h.Sync.V(p, semMutex)
			}
		}
	}

	var elapsed sim.Duration
	elapsed = c.Run(0, func(p *sim.Proc, h *cluster.Host) {
		// Page-filling allocations keep the lock word and the counter
		// on separate pages, isolating lock traffic from data traffic.
		lockAddr = must(h.DSM.Alloc(p, conv.Int32, 2048))
		counterAddr = must(h.DSM.Alloc(p, conv.Int32, 2048))
		h.DSM.WriteInt32(p, lockAddr, 0)
		h.DSM.WriteInt32(p, counterAddr, 0)

		done := sim.NewSemaphore(c.K, 0)
		for i := range hosts {
			host := c.Hosts[i]
			c.K.Spawn("sync-worker", func(wp *sim.Proc) {
				worker(host, wp)
				done.V()
			})
		}
		for range hosts {
			done.P(p)
		}
		if got := h.DSM.ReadInt32(p, counterAddr); got != int32(rounds*len(hosts)) {
			panic("sync-style workload lost updates")
		}
	})
	return FigPoint{Seconds: elapsed.Seconds(), Transfers: c.TotalDSMStats().PagesFetched}
}

// ManagerPlacementResult compares the fixed distributed manager with a
// centralized manager on host 0 under a manager-heavy MM workload.
type ManagerPlacementResult struct {
	DistributedS, CentralS                 float64
	DistributedTransfers, CentralTransfers int
}

// ManagerPlacement isolates manager processing with a parallel fault
// storm: six Fireflies each own 60 pages (written first), then every
// Firefly reads its neighbour's pages concurrently. The owners are
// distributed either way, so the only serial resource that differs is
// manager processing — all on host 0 when centralized (Li's known
// central-manager bottleneck), spread across hosts when distributed
// (the paper's fixed distributed managers).
func ManagerPlacement() ManagerPlacementResult {
	run := func(dir dsm.Directory) FigPoint {
		const (
			nf       = 6
			pagesPer = 60
		)
		// 1 KB pages keep the shared wire unsaturated so manager
		// processing — the resource under study — dominates, and
		// per-request jitter breaks the deterministic lockstep that
		// would otherwise let one manager pipeline the request waves.
		pv := model.Default()
		pv.ProcessJitterPct = 0.25
		c := must(cluster.New(cluster.Config{Hosts: sunAndFireflies(nf, 2), Seed: 1, Directory: dir, PageSize: 1024, Params: &pv}))
		defer c.Close()
		var storm sim.Duration
		c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
			const per = 256 // ints per 1 KB page
			addr := must(h0.DSM.Alloc(p, conv.Int32, per*pagesPer*nf))
			// Ownership setup: Firefly i takes its own block.
			spawnPerHost(c, p, func(h *cluster.Host, wp *sim.Proc) {
				if h.ID == 0 {
					return
				}
				base := addr + dsm.Addr(4*per*pagesPer*(int(h.ID)-1))
				buf := make([]int32, per)
				for pg := 0; pg < pagesPer; pg++ {
					h.DSM.WriteInt32s(wp, base+dsm.Addr(4*per*pg), buf)
				}
			})
			// The storm: every Firefly runs two reader streams over its
			// two neighbours' blocks (12 concurrent fault streams).
			start := p.Now()
			done := sim.NewSemaphore(c.K, 0)
			streams := 0
			for hid := 1; hid <= nf; hid++ {
				h := c.Hosts[hid]
				for lane := 1; lane <= 2; lane++ {
					neighbour := (int(h.ID)-1+lane)%nf + 1
					base := addr + dsm.Addr(4*per*pagesPer*(neighbour-1))
					streams++
					c.K.Spawn("storm", func(wp *sim.Proc) {
						buf := make([]int32, per)
						for pg := 0; pg < pagesPer; pg++ {
							h.DSM.ReadInt32s(wp, base+dsm.Addr(4*per*pg), buf)
						}
						done.V()
					})
				}
			}
			for i := 0; i < streams; i++ {
				done.P(p)
			}
			storm = p.Now().Sub(start)
		})
		return FigPoint{Seconds: storm.Seconds(), Transfers: c.TotalDSMStats().PagesFetched}
	}
	dirs := []dsm.Directory{dsm.DirFixed, dsm.DirCentral}
	res := sim.Each(len(dirs), func(i int) FigPoint { return run(dirs[i]) })
	return ManagerPlacementResult{
		DistributedS: res[0].Seconds, DistributedTransfers: res[0].Transfers,
		CentralS: res[1].Seconds, CentralTransfers: res[1].Transfers,
	}
}

// InvalidationRow measures one write fault that must invalidate a
// copyset of the given size, under broadcast multicast (the paper's
// §2.2 mechanism) and under per-member unicast (ablation).
type InvalidationRow struct {
	// Copyset is the number of read replicas invalidated.
	Copyset int
	// BroadcastMS and UnicastMS are the write-fault delays.
	BroadcastMS, UnicastMS float64
	// BroadcastFrames and UnicastFrames count wire frames during the
	// invalidating write.
	BroadcastFrames, UnicastFrames int
}

// InvalidationScaling measures invalidation cost against copyset size.
func InvalidationScaling(sizes []int) []InvalidationRow {
	type cost struct {
		ms     float64
		frames int
	}
	measure := func(copyset int, unicast bool) cost {
		hosts := make([]cluster.HostSpec, copyset+2)
		for i := range hosts {
			hosts[i] = cluster.HostSpec{Kind: arch.Sun}
		}
		c := must(cluster.New(cluster.Config{Hosts: hosts, Seed: 1, UnicastInvalidate: unicast}))
		defer c.Close()
		var out cost
		c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
			addr := must(h0.DSM.Alloc(p, conv.Int32, 2048))
			h0.DSM.WriteInt32s(p, addr, make([]int32, 2048))
			var v [1]int32
			for i := 0; i < copyset; i++ {
				c.Hosts[1+i].DSM.ReadInt32s(p, addr, v[:])
			}
			writer := c.Hosts[copyset+1]
			framesBefore := c.Net.Stats().FramesSent
			start := p.Now()
			writer.DSM.WriteInt32s(p, addr, []int32{1})
			out.ms = float64(p.Now().Sub(start)) / float64(time.Millisecond)
			out.frames = c.Net.Stats().FramesSent - framesBefore
		})
		return out
	}
	// Per size: broadcast, then unicast.
	res := sim.Each(2*len(sizes), func(i int) cost { return measure(sizes[i/2], i%2 == 1) })
	rows := make([]InvalidationRow, len(sizes))
	for i, n := range sizes {
		b, u := res[2*i], res[2*i+1]
		rows[i] = InvalidationRow{Copyset: n, BroadcastMS: b.ms, UnicastMS: u.ms, BroadcastFrames: b.frames, UnicastFrames: u.frames}
	}
	return rows
}

// InvalidationTable formats the invalidation-scaling comparison.
func InvalidationTable(rows []InvalidationRow) *Table {
	t := &Table{
		Title:  "Write invalidation vs copyset size: broadcast multicast (§2.2) vs unicast",
		Header: []string{"copyset", "broadcast ms", "unicast ms", "broadcast frames", "unicast frames"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Copyset),
			fmt.Sprintf("%.1f", r.BroadcastMS),
			fmt.Sprintf("%.1f", r.UnicastMS),
			fmt.Sprintf("%d", r.BroadcastFrames),
			fmt.Sprintf("%d", r.UnicastFrames),
		})
	}
	return t
}
