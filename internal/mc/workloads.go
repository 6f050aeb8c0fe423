package mc

// The model-checking workloads. Each is deliberately tiny — a handful
// of pages, two or three hosts, a few dozen choice points — because a
// stateless explorer pays a whole simulation run per schedule. They are
// also written to be *schedule-invariant* under the correct protocol:
// every shared location is either written at most once or protected by
// a distributed semaphore, so the oracles must stay silent on every
// explored schedule of the unmutated tree, and any noise is a real bug.

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/namelist"
	"repro/internal/sim"
)

// Distributed synchronization primitive IDs used by the workloads.
const (
	semLock  = 1
	semDone  = 2
	semStart = 10 // semStart+i starts worker i
	barMain  = 20
	semReady = 30
	semA     = 31
)

// pageInts is how many int32 elements fill one workload page exactly,
// so consecutive Allocs land on separate pages.
const pageInts = workloadPageSize / 4

// The workloads run the largest page size algorithm (8192): every
// host's native VM page maps to exactly one DSM page, so a fault never
// drags in neighboring unallocated pages via VM-page-group expansion.
const (
	workloadPageSize  = 8192
	workloadSpaceSize = 4 * 8192
)

// mcParams is the schedule-exploration cost model: every processing
// and wire cost flattened to zero, so all concurrently pending work
// ties at the same virtual instant and the order it runs in becomes a
// pure scheduling choice the Chooser controls. Under the calibrated
// model distinct costs serialize almost everything and the schedule
// space collapses to a handful of runs; correctness must hold at any
// speed, so checking at "all speeds equal" loses no generality while
// exposing every delivery/wakeup race. Timeouts and retry policy keep
// their real values — they are protocol behaviour, not speed.
func mcParams() model.Params {
	params := model.Default()
	params.ProcessJitterPct = 0
	params.BandwidthBps = 1 << 50 // wire time rounds to zero
	params.PacketLatency = 0
	zero := model.PerKind{}
	params.FaultRead = zero
	params.FaultWrite = zero
	params.MsgSetup = zero
	params.FragCost = zero
	params.CrossPenalty = 0
	params.ManagerProcess = zero
	params.OwnerProcess = zero
	params.ForwardCost = zero
	params.InvalidateProcess = zero
	params.InstallCost = zero
	params.ConvInt16 = 0
	params.ConvInt32 = 0
	params.ConvFloat32 = 0
	params.ConvFloat64 = 0
	params.ConvPointer = 0
	params.ConvByte = 0
	params.MACCost = 0
	params.ThreadCreate = zero
	params.SyncProcess = zero
	params.RemoteOpProcess = zero
	return params
}

// workloads is the registry, keyed by Name.
var workloads = namelist.NewRegistry[*cluster.Workload]("mc: unknown workload")

// Lookup resolves a workload by name.
func Lookup(name string) (*cluster.Workload, error) { return workloads.Lookup(name) }

// All returns every registered workload in name order.
func All() []*cluster.Workload { return workloads.All() }

func init() {
	for _, w := range []*cluster.Workload{
		basicWorkload, matmulWorkload, ringWorkload, updateWorkload, semWorkload,
		barrierWorkload, crashWorkload, dynamicWorkload, quorumWorkload, rcWorkload,
		migrationWorkload, centralWorkload,
	} {
		workloads.Register(w.Name, w)
	}
}

// rcWorkload runs the lazy-release policy across a Sun and a Firefly.
// Two protected patterns share the run:
//
//   - A semaphore-locked counter (page 0), two increments per worker:
//     each release pushes the interval's diff, each acquire applies it
//     from the grant or pulls it, so a lost diff or a mis-merged twin
//     corrupts the count — and the happens-before oracle flags the
//     stale read even on schedules where the final count survives.
//   - A staged open-interval acquire (page 1): worker 1 faults the page
//     in, opens a write interval on element 0 (its twin stays live),
//     and only then acquires worker 0's released write of element 1 —
//     forcing a diff to merge into a page WITH a live twin, the one
//     path MutStaleTwinMerge corrupts (page 1's home is host 1, so the
//     merge is worker 0's push arriving there; the locked counter never
//     merges with an open interval: its writes happen after the
//     acquire).
//
// Both patterns are fully ordered by semaphores, so the assertions are
// exact on every schedule of the unmutated protocol.
var rcWorkload = &cluster.Workload{
	Name:  "rc",
	Desc:  "2 hosts (Sun+Firefly), lazy release consistency: locked counter + open-interval pull",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly},
	Tune:  func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyRC },
	Define: func(c *cluster.Cluster) {
		c.DefineSemaphore(semLock, 0, 1)
		c.DefineSemaphore(semDone, 1, 0)
		c.DefineSemaphore(semReady, 0, 0)
		c.DefineSemaphore(semA, 1, 0)
	},
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		h0 := c.Hosts[0]
		counter, err := h0.DSM.Alloc(p, conv.Int32, pageInts) // page 0
		if err != nil {
			return err
		}
		pair, err := h0.DSM.Alloc(p, conv.Int32, pageInts) // page 1
		if err != nil {
			return err
		}
		var twinGot int32
		for w := 0; w < 2; w++ {
			w := w
			host := c.Hosts[w]
			c.K.Spawn(fmt.Sprintf("rcw%d", w), func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					host.Sync.P(p, semLock)
					v := host.DSM.ReadInt32(p, counter)
					host.DSM.WriteInt32(p, counter, v+1)
					host.Sync.V(p, semLock)
				}
				if w == 0 {
					host.Sync.P(p, semReady)
					host.DSM.WriteInt32(p, pair+4, 7)
					host.Sync.V(p, semA)
				} else {
					host.DSM.ReadInt32(p, pair) // fault the page in first
					host.Sync.V(p, semReady)
					host.DSM.WriteInt32(p, pair, 5) // open an interval: twin live
					host.Sync.P(p, semA)            // pull worker 0's interval under the twin
					twinGot = host.DSM.ReadInt32(p, pair+4)
				}
				host.Sync.V(p, semDone)
			})
		}
		for i := 0; i < 2; i++ {
			h0.Sync.P(p, semDone)
		}
		h0.Sync.P(p, semLock) // acquire the workers' final counter intervals
		if got := h0.DSM.ReadInt32(p, counter); got != 4 {
			return fmt.Errorf("counter = %d, want 4", got)
		}
		h0.Sync.V(p, semLock)
		if twinGot != 7 {
			return fmt.Errorf("acquired read under a live twin = %d, want 7", twinGot)
		}
		if got := h0.DSM.ReadInt32(p, pair); got != 5 {
			return fmt.Errorf("open-interval write = %d, want 5", got)
		}
		return nil
	},
}

// quorumWorkload runs the SC-ABD quorum policy across three hosts. Each
// operation completes at a majority (self plus one peer, first reply
// wins), so the third replica is legitimately left behind — the explorer
// branches over which peer answers first and over whether a reader runs
// before or after a straggling install lands. Correctness rests on
// quorum intersection alone: whichever majority a read assembles must
// overlap whichever majority the preceding write stored at, so the exact
// assertions hold on every schedule of the unmutated protocol. Under
// MutStaleQuorumRead a read trusts its (possibly stale) local replica
// and a schedule that parked the install exposes the old value; under
// MutSplitBrainWrite a write never leaves its host and any majority read
// that excludes the writer misses it.
var quorumWorkload = &cluster.Workload{
	Name:  "quorum",
	Desc:  "3 hosts, SC-ABD majority quorum: cross-host read/write visibility",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Sun},
	Tune:  func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyQuorum },
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		h0, h1, h2 := c.Hosts[0], c.Hosts[1], c.Hosts[2]
		x, err := h0.DSM.Alloc(p, conv.Int32, pageInts)
		if err != nil {
			return err
		}
		if got := h1.DSM.ReadInt32(p, x); got != 0 {
			return fmt.Errorf("initial read = %d, want 0", got)
		}
		h1.DSM.WriteInt32(p, x, 7)
		if got := h2.DSM.ReadInt32(p, x); got != 7 {
			return fmt.Errorf("read after quorum write = %d, want 7", got)
		}
		h2.DSM.WriteInt32(p, x, 9)
		if got := h0.DSM.ReadInt32(p, x); got != 9 {
			return fmt.Errorf("read after second quorum write = %d, want 9", got)
		}
		return nil
	},
}

// dynamicWorkload walks ownership through all three hosts of a dynamic-
// directory cluster (Li & Hudak's dynamic distributed manager instead
// of the fixed scheme) so probable-owner hints go stale and requests
// must forward: after host 1 takes ownership, host 2's read still aims
// at host 0 (its initial hint) and travels the chain 0→1; host 2's
// write then upgrades in place, and host 0's final read chases 1→2.
// Every value is checked where coherence bugs would surface, and the
// invariant checker's dynamic branch audits the hint graph at each
// transition. Under MutStaleProbableOwner the relinquishing owner keeps
// its self-hint and the next forwarded request trips the self-loop
// assertion.
var dynamicWorkload = &cluster.Workload{
	Name:  "dynamic",
	Desc:  "3 hosts, dynamic distributed manager: ownership chain + forwarded third-party requests",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Sun},
	Tune:  func(cfg *cluster.Config) { cfg.Directory = dsm.DirDynamic },
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		h0, h1, h2 := c.Hosts[0], c.Hosts[1], c.Hosts[2]
		x, err := h0.DSM.Alloc(p, conv.Int32, pageInts)
		if err != nil {
			return err
		}
		h1.DSM.WriteInt32(p, x, 1) // ownership 0→1
		if got := h2.DSM.ReadInt32(p, x); got != 1 {
			return fmt.Errorf("forwarded read = %d, want 1", got) // chain 0→1
		}
		h2.DSM.WriteInt32(p, x, 2) // replica upgrade: 1 invalidates and hands off
		if got := h1.DSM.ReadInt32(p, x); got != 2 {
			return fmt.Errorf("read after upgrade = %d, want 2", got)
		}
		if got := h0.DSM.ReadInt32(p, x); got != 2 {
			return fmt.Errorf("chased read = %d, want 2", got) // chain 1→2
		}
		return nil
	},
}

// crashWorkload explores crash points around an ownership transfer: a
// Firefly owner dies before, after, or *during* the handoff of its page
// to another Firefly, and the Sun manager must recover the page from
// the surviving copyset member (converting representations) so the
// final read sees the last completed write. The crash point is a
// kernel Choose — part of the recorded schedule, so the explorer
// branches over it and a violating placement replays from its token.
// The mid-transfer variant enqueues the crash as a zero-delay event that
// ties with the transfer's own events, letting the chooser slide the
// crash between any two protocol steps. Host 0 (manager and allocation
// coordinator) never crashes. The failure detector runs on every host:
// this workload needs detection and recovery, and no other pays for the
// heartbeat events.
var crashWorkload = &cluster.Workload{
	Name:   "crash",
	Desc:   "3 hosts, owner crash before/after/during an ownership transfer + copyset recovery",
	Kinds:  []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly},
	Tune:   func(cfg *cluster.Config) { cfg.FailureDetection = true },
	Define: func(c *cluster.Cluster) { c.DefineSemaphore(semDone, 0, 0) },
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		h0, h1, h2 := c.Hosts[0], c.Hosts[1], c.Hosts[2]
		x, err := h0.DSM.Alloc(p, conv.Int32, pageInts) // page 0, managed by host 0
		if err != nil {
			return err
		}
		vals := []int32{11, 22, 33, 44}
		vals2 := []int32{55, 66, 77, 88}
		if err := h1.DSM.WriteInt32sE(p, x, vals); err != nil {
			return fmt.Errorf("doomed owner's write: %w", err)
		}
		var snap [4]int32
		if err := h2.DSM.ReadInt32sE(p, x, snap[:]); err != nil {
			return fmt.Errorf("survivor's replicate read: %w", err)
		}
		wrote := false
		switch c.K.Choose(3, "crash-point") {
		case 0:
			// Owner dies holding the only current copy of its
			// writes; the survivor's read replica must carry them.
			c.CrashHost(1)
		case 1:
			// Ownership moves first; the corpse is a bystander.
			if err := h2.DSM.WriteInt32sE(p, x, vals2); err != nil {
				return fmt.Errorf("transfer before crash: %w", err)
			}
			wrote = true
			c.CrashHost(1)
		case 2:
			// The crash event ties with the transfer's events at the
			// same instant: the chooser decides how far the handoff
			// gets before the owner drops dead.
			var werr error
			c.K.Spawn("transfer", func(wp *sim.Proc) {
				werr = h2.DSM.WriteInt32sE(wp, x, vals2)
				h2.Sync.V(wp, semDone)
			})
			c.K.AfterNamed("crash", 0, func() { c.CrashHost(1) })
			h0.Sync.P(p, semDone)
			if werr != nil {
				return fmt.Errorf("transfer interrupted by crash never completed: %w", werr)
			}
			wrote = true
		}
		// Let heartbeat silence cross the death threshold and the
		// recovery sweep finish.
		p.Sleep(4 * sim.Duration(1_000_000_000))
		var got [4]int32
		if err := h0.DSM.ReadInt32sE(p, x, got[:]); err != nil {
			return fmt.Errorf("read after owner crash: %w", err)
		}
		want := vals
		if wrote {
			want = vals2
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("recovered value [%d] = %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	},
}

// basicWorkload is the CI smoke scenario: 2 hosts (one Sun, one
// Firefly — page migrations convert), 2 pages. Page 0 holds a shared
// counter incremented twice by a worker on each host under a
// distributed semaphore; page 1 holds one slot per worker, written
// once. The counter exercises upgrade grants, write transfers and
// invalidations; the cross-architecture migrations exercise
// conversion; the lock and completion semaphores exercise dsync under
// every wakeup order.
var basicWorkload = &cluster.Workload{
	Name:   "basic",
	Desc:   "2 hosts (Sun+Firefly), 2 pages: semaphore-locked counter + once-written slots",
	Kinds:  []arch.Kind{arch.Sun, arch.Firefly},
	Define: lockAndDone,
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		h0 := c.Hosts[0]
		counter, err := h0.DSM.Alloc(p, conv.Int32, pageInts) // page 0
		if err != nil {
			return err
		}
		slots, err := h0.DSM.Alloc(p, conv.Int32, pageInts) // page 1
		if err != nil {
			return err
		}
		for w := 0; w < 2; w++ {
			w := w
			host := c.Hosts[w]
			c.K.Spawn(fmt.Sprintf("worker%d", w), func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					host.Sync.P(p, semLock)
					v := host.DSM.ReadInt32(p, counter)
					host.DSM.WriteInt32(p, counter, v+1)
					host.Sync.V(p, semLock)
				}
				host.DSM.WriteInt32(p, slots+dsm.Addr(4*w), int32(100+w))
				host.Sync.V(p, semDone)
			})
		}
		for i := 0; i < 2; i++ {
			h0.Sync.P(p, semDone)
		}
		if got := h0.DSM.ReadInt32(p, counter); got != 4 {
			return fmt.Errorf("counter = %d, want 4", got)
		}
		for w := 0; w < 2; w++ {
			if got := h0.DSM.ReadInt32(p, slots+dsm.Addr(4*w)); got != int32(100+w) {
				return fmt.Errorf("slot %d = %d, want %d", w, got, 100+w)
			}
		}
		return nil
	},
}

// lockAndDone declares the lock (managed by host 0, initially free) and
// completion (managed by host 1) semaphores of the two-worker
// workloads.
func lockAndDone(c *cluster.Cluster) {
	c.DefineSemaphore(semLock, 0, 1)
	c.DefineSemaphore(semDone, 1, 0)
}

// matmulWorkload is a 2×2 integer matrix multiplication with one row
// per worker host — the EXPERIMENTS.md reference scenario. Three pages
// (A, B, C); A and B are written once by the coordinator before the
// workers start, C's rows are disjoint, so the run is
// schedule-invariant while still moving three pages between three
// hosts of two architectures.
var matmulWorkload = &cluster.Workload{
	Name:  "matmul",
	Desc:  "3 hosts, 2×2 int matmul, one row per worker (3 pages)",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Sun},
	Define: func(c *cluster.Cluster) {
		c.DefineSemaphore(semStart+0, 0, 0)
		c.DefineSemaphore(semStart+1, 1, 0)
		c.DefineSemaphore(semDone, 2, 0)
	},
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		h0 := c.Hosts[0]
		var mats [3]dsm.Addr
		var err error
		for i := range mats {
			if mats[i], err = h0.DSM.Alloc(p, conv.Int32, pageInts); err != nil {
				return err
			}
		}
		a, b, cm := mats[0], mats[1], mats[2]
		h0.DSM.WriteInt32s(p, a, []int32{1, 2, 3, 4})
		h0.DSM.WriteInt32s(p, b, []int32{5, 6, 7, 8})
		for w := 0; w < 2; w++ {
			w := w
			host := c.Hosts[w+1]
			c.K.Spawn(fmt.Sprintf("row%d", w), func(p *sim.Proc) {
				host.Sync.P(p, uint32(semStart+w))
				var av, bv [4]int32
				host.DSM.ReadInt32s(p, a, av[:])
				host.DSM.ReadInt32s(p, b, bv[:])
				var row [2]int32
				for j := 0; j < 2; j++ {
					row[j] = av[2*w]*bv[j] + av[2*w+1]*bv[2+j]
				}
				host.DSM.WriteInt32s(p, cm+dsm.Addr(8*w), row[:])
				host.Sync.V(p, semDone)
			})
		}
		h0.Sync.V(p, semStart+0)
		h0.Sync.V(p, semStart+1)
		h0.Sync.P(p, semDone)
		h0.Sync.P(p, semDone)
		var got [4]int32
		h0.DSM.ReadInt32s(p, cm, got[:])
		want := [4]int32{19, 22, 43, 50}
		if got != want {
			return fmt.Errorf("C = %v, want %v", got, want)
		}
		return nil
	},
}

// ringWorkload drives the three-party stale-reader scenario: host 1
// acquires a read replica, host 2 then writes the page. A manager that
// forgot to record host 1 in the copyset (MutDropCopyset) leaves its
// replica alive through host 2's write — invisible with only two hosts,
// where the reader is always the requester or the owner of the
// transfer.
var ringWorkload = &cluster.Workload{
	Name:  "ring",
	Desc:  "3 hosts, read-replicate then third-party write (copyset accuracy)",
	Kinds: []arch.Kind{arch.Sun, arch.Sun, arch.Sun},
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		x, err := c.Hosts[0].DSM.Alloc(p, conv.Int32, pageInts)
		if err != nil {
			return err
		}
		c.Hosts[0].DSM.WriteInt32(p, x, 1)
		if got := c.Hosts[1].DSM.ReadInt32(p, x); got != 1 {
			return fmt.Errorf("first read = %d, want 1", got)
		}
		c.Hosts[2].DSM.WriteInt32(p, x, 2)
		if got := c.Hosts[1].DSM.ReadInt32(p, x); got != 2 {
			return fmt.Errorf("read after third-party write = %d, want 2", got)
		}
		return nil
	},
}

// updateWorkload runs the write-update policy: host 1 holds a replica,
// host 0 writes through the manager's sequencer, host 1 must see the
// new value in its never-invalidated replica.
var updateWorkload = &cluster.Workload{
	Name:  "update",
	Desc:  "2 hosts, write-update policy: sequenced write reaches the replica",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly},
	Tune:  func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyUpdate },
	Main:  readWriteReadBack,
}

// migrationWorkload runs the page-migration policy: the page's one copy
// moves to whichever host touches it, so host 1's read takes it to the
// Firefly, host 0's write brings it back to the Sun and host 1's
// read-back takes it across again — every move after the first touch a
// cross-architecture conversion of the whole page.
var migrationWorkload = &cluster.Workload{
	Name:  "migration",
	Desc:  "2 hosts (Sun+Firefly), page migration: the single copy converts on every move",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly},
	Tune:  func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyMigration },
	Main:  readWriteReadBack,
}

// centralWorkload runs the central-server policy: no host caches the
// page, every access is a remote operation at its server (host 0, a
// Sun), so the Firefly's reads get their values converted on every
// reply.
var centralWorkload = &cluster.Workload{
	Name:  "central",
	Desc:  "2 hosts (Sun+Firefly), central server: every remote access converts at the server",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly},
	Tune:  func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyCentral },
	Main:  readWriteReadBack,
}

// readWriteReadBack is the body of the update, migration and central
// rows: host 1 reads host 0's fresh allocation across architectures,
// host 0 writes it, and host 1 must read the new value back. The
// failure message keeps the update row's wording, "replica read".
func readWriteReadBack(p *sim.Proc, c *cluster.Cluster) error {
	x, err := c.Hosts[0].DSM.Alloc(p, conv.Int32, pageInts)
	if err != nil {
		return err
	}
	if got := c.Hosts[1].DSM.ReadInt32(p, x); got != 0 {
		return fmt.Errorf("initial read = %d, want 0", got)
	}
	c.Hosts[0].DSM.WriteInt32(p, x, 7)
	if got := c.Hosts[1].DSM.ReadInt32(p, x); got != 7 {
		return fmt.Errorf("replica read = %d, want 7", got)
	}
	return nil
}

// semWorkload checks distributed semaphore mutual exclusion and
// progress under adversarial wakeup orders: one worker per host, each
// entering a critical section twice. The critical-section occupancy
// check uses plain Go variables, outside DSM, so it cannot be confused
// by a DSM bug; a lost wakeup surfaces as a deadlock.
var semWorkload = &cluster.Workload{
	Name:   "sem",
	Desc:   "2 hosts, dsync semaphore mutual exclusion under adversarial wakeups",
	Kinds:  []arch.Kind{arch.Sun, arch.Firefly},
	Define: lockAndDone,
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		inCS := 0
		overlaps := 0
		for w := 0; w < 2; w++ {
			host := c.Hosts[w]
			c.K.Spawn(fmt.Sprintf("cs%d", w), func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					host.Sync.P(p, semLock)
					inCS++
					if inCS > 1 {
						overlaps++
					}
					p.Sleep(100 * sim.Duration(1000)) // dwell in the critical section
					inCS--
					host.Sync.V(p, semLock)
				}
				host.Sync.V(p, semDone)
			})
		}
		for i := 0; i < 2; i++ {
			c.Hosts[0].Sync.P(p, semDone)
		}
		if overlaps > 0 {
			return fmt.Errorf("%d critical-section overlaps — P/V mutual exclusion broken", overlaps)
		}
		return nil
	},
}

// barrierWorkload checks the distributed barrier for lost wakeups
// under adversarial schedules: two workers on different hosts
// synchronize through two rounds. After a barrier releases a worker in
// round r, its peer must have entered round r (it may already be in
// r+1, blocked on the next barrier, but can never lag). A dropped
// release parks a worker forever and surfaces as a deadlock.
var barrierWorkload = &cluster.Workload{
	Name:  "barrier",
	Desc:  "2 hosts, dsync barrier, 2 rounds: no lost wakeups, no round skew",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly},
	Define: func(c *cluster.Cluster) {
		c.DefineBarrier(barMain, 0, 2)
		c.DefineSemaphore(semDone, 1, 0)
	},
	Main: func(p *sim.Proc, c *cluster.Cluster) error {
		var round [2]int
		skew := 0
		for w := 0; w < 2; w++ {
			w := w
			host := c.Hosts[w]
			c.K.Spawn(fmt.Sprintf("round%d", w), func(p *sim.Proc) {
				for r := 1; r <= 2; r++ {
					round[w] = r
					host.Sync.BarrierArrive(p, barMain)
					if round[1-w] < r {
						skew++
					}
				}
				host.Sync.V(p, semDone)
			})
		}
		for i := 0; i < 2; i++ {
			c.Hosts[0].Sync.P(p, semDone)
		}
		if skew > 0 {
			return fmt.Errorf("barrier released a worker %d time(s) before its peer arrived", skew)
		}
		return nil
	},
}
