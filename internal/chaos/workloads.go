package chaos

// The chaos workloads. Unlike the model checker's (which assume a
// fault-free fabric and assert exact results), these are written the
// way a fault-tolerant application would be: every DSM and dsync call
// goes through the error-returning variants, workers run as separate
// simulated processes per host (so a host crash kills its worker and
// nothing else), and the coordinator on host 0 — which is never
// crashed or partitioned — polls shared state while workers run, then
// applies final assertions calibrated to crash-stop semantics:
//
//   - With no host dead and every worker finished, progress must be
//     exact: the fabric's message faults (loss, duplication,
//     corruption, short partitions) are the protocol's to absorb.
//   - After a crash, a page value may roll back to the last replicated
//     snapshot (MRSW write-invalidate loses un-replicated writes with
//     their owner — that is the documented semantics, and the recovery
//     install re-records the snapshot so the SC oracle agrees), but it
//     must still be a value that was actually written, never torn.
//   - dsm.ErrPageLost is acceptable only if a host actually died (the
//     sole owner took the only copy down with it). A persistent
//     dsm.ErrHostDown on the coordinator's final read is *never*
//     acceptable: host 0's manager is alive, so a recoverable page
//     that stays unreadable means recovery itself is broken.
//
// The oracles (invariant checker, SC trace, hang detection) judge
// every run on top of these assertions.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/namelist"
	"repro/internal/netsim"
	"repro/internal/sim"
)

const (
	chaosPageSize  = 8192
	chaosSpaceSize = 4 * 8192
	chaosPageInts  = chaosPageSize / 4

	// Workload tempo: workers act every workPeriod during the fault
	// horizon, the coordinator polls shared state every pollPeriod
	// (seeding replicas that make pages recoverable), and settlePhase
	// gives failure detection (~2–3 s after a late crash) plus the
	// recovery sweep room to converge before final assertions.
	workPeriod  = 120 * time.Millisecond
	pollPeriod  = 150 * time.Millisecond
	activePhase = 2400 * time.Millisecond
	settlePhase = 4500 * time.Millisecond

	chaosSemLock = 1
	chaosSemPing = 2
	chaosSemPong = 3
	chaosSemSlot = 4 // +w: the rc workload's per-worker interval brackets
)

// anyDead reports whether host 0's detector has declared any peer dead.
func anyDead(c *cluster.Cluster) bool {
	for h := 1; h < len(c.Hosts); h++ {
		if c.Hosts[0].Detect.Dead(cluster.HostID(h)) {
			return true
		}
	}
	return false
}

// tolerableLost reports whether err is a page loss that crash-stop
// semantics permit: the sole owner died with the only copy.
func tolerableLost(err error, died bool) bool {
	return died && errors.Is(err, dsm.ErrPageLost)
}

// workloads is the registry, keyed by Name.
var workloads = namelist.NewRegistry[*cluster.Workload]("chaos: unknown workload")

// Lookup resolves a workload by name.
func Lookup(name string) (*cluster.Workload, error) { return workloads.Lookup(name) }

// All returns every registered workload in name order.
func All() []*cluster.Workload { return workloads.All() }

func init() {
	for _, w := range []*cluster.Workload{
		slotsWorkload, switchedWorkload, quorumWorkload, rcWorkload, forwardWorkload, counterWorkload, handoffWorkload,
	} {
		workloads.Register(w.Name, w)
	}
}

// stampPattern is the scenario five of the workloads share, stated
// once: three writers each stamp their own slot with a monotone
// sequence number, mirrored in a second word of the same access (so a
// recovered slot is either a complete snapshot or wrong); the
// coordinator polls every slot while they run; after the settle phase
// a list of final probes must read each slot back mirrored and no newer
// than its writer's last completed stamp — exact when nobody died and
// no writer stopped. The fields are the decision points: a workload is
// a row (hosts, config and fault-plan edits) plus a literal stating
// where its program differs. Host 0 is the coordinator.
type stampPattern struct {
	// writers places writer w on a host; procName (one %d) names its
	// simulated process.
	writers  [3]int
	procName string
	rounds   int32
	// onePage packs the three slots into one page as disjoint pairs
	// instead of giving each writer a page of its own.
	onePage bool
	// Writer w sleeps dwell + w·stagger between stamps.
	dwell, stagger time.Duration
	// bracket wraps every stamp in the writer's own acquire/release
	// pair, and makes exactness wait for the writer to have finished.
	bracket bool
	// lossless engines keep every page through every fault the plans
	// inject, so a final read may never fail; the others tolerate
	// ErrPageLost once a host died (tolerableLost).
	lossless bool
	// slack is how far past the writer's last completed stamp a slot
	// may legitimately read.
	slack int32
	// probes lists the final reads, in order, once the run has settled.
	probes func(c *cluster.Cluster) []probe
	// judge, when set, checks the completion times of the coordinator's
	// successful polls against the installed fault plan.
	judge func(plan *netsim.FaultPlan, completions []sim.Time) error
}

// stamped returns row running the stamp pattern s: s.run as its Main
// and, under a bracket, the writers' slot semaphores as its Define.
func stamped(row cluster.Workload, s *stampPattern) *cluster.Workload {
	if s.bracket {
		row.Define = func(c *cluster.Cluster) {
			for w := range s.writers {
				c.DefineSemaphore(chaosSemSlot+uint32(w), 0, 1)
			}
		}
	}
	row.Main = s.run
	return &row
}

// probe is one final read: reader loads slot.
type probe struct {
	reader *cluster.Host
	slot   int
}

// stamp is one writer round: the mirrored pair i, inside the writer's
// bracket when the pattern has one.
func (s *stampPattern) stamp(wp *sim.Proc, host *cluster.Host, sem uint32, slot dsm.Addr, i int32, last *int32) error {
	if s.bracket {
		if err := host.Sync.PE(wp, sem); err != nil {
			return err
		}
	}
	if err := host.DSM.WriteInt32sE(wp, slot, []int32{i, i}); err != nil {
		if s.bracket {
			host.Sync.VE(wp, sem) // best-effort close before retiring
		}
		return err
	}
	*last = i
	if s.bracket {
		// The V both releases the bracket and pushes the interval's diff
		// home; a push the fabric swallows surfaces here.
		return host.Sync.VE(wp, sem)
	}
	return nil
}

func (s *stampPattern) run(p *sim.Proc, c *cluster.Cluster) error {
	noun, verb := "slot", "written"
	if s.onePage {
		noun = "pair"
	}
	if s.bracket {
		verb = "released"
	}
	h0 := c.Hosts[0]
	var slots [3]dsm.Addr
	for w := range slots {
		if s.onePage && w > 0 {
			slots[w] = slots[0] + dsm.Addr(8*w)
			continue
		}
		var err error
		if slots[w], err = h0.DSM.Alloc(p, conv.Int32, chaosPageInts); err != nil {
			return err
		}
	}
	var last [3]int32
	var stopped [3]error
	var finished [3]bool
	for w := range slots {
		host := c.Hosts[s.writers[w]]
		c.K.Spawn(fmt.Sprintf(s.procName, w), func(wp *sim.Proc) {
			for i := int32(1); i <= s.rounds; i++ {
				// A writer that hits a fault retires with the error.
				if stopped[w] = s.stamp(wp, host, chaosSemSlot+uint32(w), slots[w], i, &last[w]); stopped[w] != nil {
					return
				}
				wp.Sleep(s.dwell + time.Duration(w)*s.stagger)
			}
			finished[w] = true
		})
	}
	// Poll while the writers run: transient errors during fault windows
	// are the fabric's business, but every successful read refreshes
	// this host's replica — the copy recovery runs on — and its
	// completion time is the raw material for judge.
	var completions []sim.Time
	for c.K.Now() < sim.Time(activePhase) {
		for w := range slots {
			var pair [2]int32
			if err := h0.DSM.ReadInt32sE(p, slots[w], pair[:]); err == nil {
				if pair[0] != pair[1] {
					return fmt.Errorf("poll saw torn %s %d: %v", noun, w, pair)
				}
				completions = append(completions, c.K.Now())
			}
		}
		p.Sleep(pollPeriod)
	}
	p.Sleep(settlePhase)
	if s.judge != nil {
		if err := s.judge(c.Net.FaultPlan(), completions); err != nil {
			return err
		}
	}

	died := anyDead(c)
	strict := !died
	for w := range slots {
		// Under a bracket a retransmission-delayed straggler can still
		// be mid-round at judgment time with nothing stopped; exactness
		// needs the worker to have pushed its final interval.
		if stopped[w] != nil || s.bracket && !finished[w] {
			strict = false
		}
	}
	for _, pr := range s.probes(c) {
		reader, w := pr.reader, pr.slot
		var pair [2]int32
		err := reader.DSM.ReadInt32sE(p, slots[w], pair[:])
		switch {
		case err == nil:
			if pair[0] != pair[1] {
				return fmt.Errorf("host %d: %s %d torn after settle: %v", reader.ID, noun, w, pair)
			}
			if pair[0] < 0 || pair[0] > last[w]+s.slack {
				return fmt.Errorf("host %d: %s %d = %d, never %s (writer completed %d)", reader.ID, noun, w, pair[0], verb, last[w])
			}
			if strict && pair[0] != s.rounds {
				return fmt.Errorf("host %d: %s %d = %d, want %d with every host alive", reader.ID, noun, w, pair[0], s.rounds)
			}
		case !s.lossless && tolerableLost(err, died):
			// Sole owner died holding the only copy.
		default:
			return fmt.Errorf("host %d: %s %d unreadable after settle: %w", reader.ID, noun, w, err)
		}
	}
	return nil
}

// survivorProbes has the coordinator, then a witness, read every slot.
// The coordinator's own replica could satisfy its read without a fault;
// a witness on another surviving host has no copy, so its read must go
// through the manager — the end-to-end proof that pages still *serve*
// after recovery.
func survivorProbes(c *cluster.Cluster) []probe {
	h0 := c.Hosts[0]
	witness := h0
	for h := 1; h < len(c.Hosts); h++ {
		if !h0.Detect.Dead(cluster.HostID(h)) {
			witness = c.Hosts[h]
			break
		}
	}
	var out []probe
	for _, reader := range []*cluster.Host{h0, witness} {
		for w := 0; w < 3; w++ {
			out = append(out, probe{reader, w})
		}
	}
	return out
}

// slotsWorkload gives each host a private page it stamps. Each
// coordinator poll leaves a read replica in the page's copyset, which
// is exactly what makes the page recoverable when its owner dies.
var slotsWorkload = stamped(cluster.Workload{
	Name:  "slots",
	Desc:  "3 hosts, per-host monotone writers + polling coordinator (recovery rollback bounds)",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly},
}, &stampPattern{
	writers:  [3]int{0, 1, 2},
	procName: "slot-writer%d",
	rounds:   12,
	// Dwell two poll periods between stamps so the coordinator's replica
	// usually postdates the last write — that replica is what recovery
	// runs on.
	dwell:   2 * workPeriod,
	stagger: 17 * time.Millisecond,
	probes:  survivorProbes,
})

// switchedWorkload is the slots pattern stretched across a switched
// 3-segment star (two hosts per segment), so fault windows land on
// cross-segment protocol exchanges and broadcasts expand along the
// multicast tree: the writers live on three different segments, so
// every coordinator poll and every recovery exchange crosses
// inter-segment links (each successful poll leaves a replica on segment
// 0 that recovery can run on, and the witness forces the final reads
// back across the star). On top of the class's fault plan, Tune
// severs one of the star's uplinks for a fixed window — the switched
// fabric's native partition, with no host list to enumerate — kept
// shorter than the failure detector's death threshold, so the protocol
// must ride the cut out with retries.
var switchedWorkload = stamped(cluster.Workload{
	Name:  "switched",
	Desc:  "6 hosts on 3 switched segments, cross-segment writers + polling coordinator (inter-segment link cut)",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly, arch.Firefly, arch.Firefly, arch.Firefly},
	Tune: func(cfg *cluster.Config) {
		cfg.Topology = netsim.SwitchedStar(3, 2)
		// Sever the uplink to leaf segment 1 or 2, by seed. The 900 ms
		// window stays under the 1200 ms partition bound. Mix plans
		// already layer loss, a partition and a crash; stacking the cut
		// on top pushes a live host's total unreachability past what the
		// failure detector and the retry budget are calibrated for, so
		// those runs keep the class's own faults only.
		if plan := cfg.FaultPlan; len(plan.Partitions) == 0 || len(plan.Crashes) == 0 {
			plan.LinkCuts = append(plan.LinkCuts, netsim.LinkCut{
				Window: netsim.Window{
					From:  sim.Time(400 * time.Millisecond),
					Until: sim.Time(1300 * time.Millisecond),
				},
				A: 0,
				B: 1 + int(cfg.Seed&1),
			})
		}
	},
}, &stampPattern{
	// One writer per segment (host h lives on segment h/2).
	writers:  [3]int{1, 3, 5},
	procName: "seg-writer%d",
	rounds:   12,
	dwell:    2 * workPeriod,
	stagger:  17 * time.Millisecond,
	probes:   survivorProbes,
})

// quorumWorkload runs the slots pattern under SC-ABD majority quorum on
// five hosts: every page is replicated at every host and every
// operation completes at a majority, so this is the one cluster whose
// workload can demand *progress during* a partition, not just after it
// heals — the availability oracle the quorum engine exists for
// (quorumProgress). Five hosts make every generated plan
// majority-preserving once the partitions are re-aimed at a single
// victim (Tune): one host cut plus one host crashed still leaves
// host 0 in a three-host component, and a majority of three is a quorum
// of five. Quorum replication has no sole-owner data loss, so unlike
// the MRSW workloads the final reads must succeed even after a crash —
// ErrPageLost is never tolerable — and the witness forces a second
// quorum assembly for each page.
var quorumWorkload = stamped(cluster.Workload{
	Name:  "quorum",
	Desc:  "5 hosts, SC-ABD majority quorum: per-host writers + polling coordinator (progress during partitions)",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly, arch.Sun},
	Tune: func(cfg *cluster.Config) {
		cfg.Policy = dsm.PolicyQuorum
		// The generator cuts one host per partition window, but two
		// windows may overlap on different victims; together with the
		// mix class's crash that could strand host 0 in a two-host
		// component — below any quorum. Re-aim every window at the
		// first victim: the same windows in time, never more than one
		// host cut at once, majority component guaranteed.
		plan := cfg.FaultPlan
		for i := 1; i < len(plan.Partitions); i++ {
			plan.Partitions[i].Group = plan.Partitions[0].Group
		}
	},
}, &stampPattern{
	writers:  [3]int{1, 2, 3},
	procName: "quorum-writer%d",
	rounds:   12,
	dwell:    2 * workPeriod,
	stagger:  17 * time.Millisecond,
	lossless: true,
	// +1: a writer killed mid-operation records nothing, but its
	// in-flight write may still have reached enough replicas for a later
	// read to adopt and write back — ABD's interrupted writes linearize,
	// they do not roll back like an MRSW owner's.
	slack:  1,
	probes: survivorProbes,
	judge:  quorumProgress,
})

// livenessWindow is the shortest partition quorumProgress judges: the
// coordinator polls every pollPeriod, so a window this long sees
// several whole poll rounds even if frame loss costs a round a
// retransmission timeout or two.
const livenessWindow = 500 * time.Millisecond

// quorumProgress is liveness under partition: for every long-enough
// window, some coordinator poll must have completed *while the cut was
// open* — the majority side must keep computing, not merely recover
// after the heal. Host 0 is never cut, so it is always in the majority
// component and its reads must keep completing. The guarantee is
// partition-tolerance — prompt delivery among the majority — so windows
// overlapped by a loss or corruption burst are exempt: with the quorum
// cut to the bare majority, every dropped frame costs a full request
// timeout, and that stall is the burst's doing, not the partition's.
func quorumProgress(plan *netsim.FaultPlan, completions []sim.Time) error {
	for _, pt := range plan.Partitions {
		if pt.Until-pt.From < sim.Time(livenessWindow) {
			continue
		}
		lossy := false
		for _, b := range append(append([]netsim.Burst{}, plan.Loss...), plan.Corrupt...) {
			until := b.Until
			if until == 0 {
				until = sim.Time(activePhase + settlePhase)
			}
			if b.From < pt.Until && until > pt.From {
				lossy = true
				break
			}
		}
		if lossy {
			continue
		}
		progressed := false
		for _, t := range completions {
			if t >= pt.From && t < pt.Until {
				progressed = true
				break
			}
		}
		if !progressed {
			return fmt.Errorf("no coordinator op completed during partition [%v, %v): the majority component stalled",
				time.Duration(pt.From), time.Duration(pt.Until))
		}
	}
	return nil
}

// rcWorkload runs the slots pattern under lazy release consistency:
// each worker stamps its private page inside its own acquire/release
// bracket, so every round pushes one interval's diff to the home on
// host 0. The central manager puts every page's home on never-crashed
// host 0, so the diff log — the only authoritative copy of released
// intervals — survives every fault the plans inject: RC has no copyset
// recovery to run, a final read may not fail, and a crashed host only
// takes its own unreleased intervals to the grave, which release
// consistency says never existed. The coordinator polls without
// acquiring — legal under RC (an unsynchronized read is concurrent with
// every interval it did not acquire) and never torn, because an
// interval's diff is applied to the home image atomically: the first
// read faults each page in from home, and host 0's copy IS the home
// image, updated in place as diffs arrive, so the poll watches the
// intervals land and a torn pair means a diff applied non-atomically.
// A worker whose release cannot reach home retires with the error:
// release consistency has no quietly-degraded mode — an interval is
// pushed or it never happened.
var rcWorkload = stamped(cluster.Workload{
	Name:  "rc",
	Desc:  "3 hosts, lazy release consistency: per-worker interval stamps + unsynchronized polling coordinator",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly},
	Tune:  func(cfg *cluster.Config) { cfg.Policy = dsm.PolicyRC },
}, &stampPattern{
	writers:  [3]int{0, 1, 2},
	procName: "rc-writer%d",
	rounds:   6,
	dwell:    2 * workPeriod,
	stagger:  17 * time.Millisecond,
	bracket:  true,
	lossless: true,
	// The coordinator reads the home image directly, and a witness that
	// never touched the page fetches it fresh from home — the cross-host
	// proof that released intervals survived the fault horizon. Worker
	// hosts only ever fault their own page, so host 2 is a fresh reader
	// for slots 0 and 1, host 1 for slot 2.
	probes: func(c *cluster.Cluster) []probe {
		h0 := c.Hosts[0]
		var out []probe
		for w := 0; w < 3; w++ {
			out = append(out, probe{h0, w})
			if witness := c.Hosts[2-w/2]; !h0.Detect.Dead(witness.ID) {
				out = append(out, probe{witness, w})
			}
		}
		return out
	},
})

// forwardWorkload runs under the dynamic distributed directory (Li &
// Hudak probable-owner forwarding) instead of the central manager:
// three workers stamp disjoint mirrored pairs of one shared page, so
// every stamp migrates the page's ownership to the writer and the next
// writer's request chases a probable-owner chain. The coordinator polls
// the page (refreshing the replica recovery runs on) while the fault
// plan drops, cuts and crashes around the forwards — a crash can land
// on the owner, on a forwarder mid-chain, or between the invalidation
// round and the handoff, which is what exercises the dynamic
// directory's lazy chain repair. The witness, holding no replica,
// proves the page still serves through the (possibly repaired) hint
// graph after settle.
var forwardWorkload = stamped(cluster.Workload{
	Name:  "forward",
	Desc:  "4 hosts, dynamic directory: writers migrate one page through probable-owner chains (crash mid-forward)",
	Kinds: []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly},
	Tune:  func(cfg *cluster.Config) { cfg.Directory = dsm.DirDynamic },
}, &stampPattern{
	writers:  [3]int{1, 2, 3},
	procName: "forward-writer%d",
	rounds:   12,
	onePage:  true,
	// Stagger the writers so ownership keeps rotating through all three
	// and the chains stay warm.
	dwell:   workPeriod,
	stagger: 37 * time.Millisecond,
	probes:  survivorProbes,
})

// lockedPattern is the scenario counter and handoff share: workers
// increment one shared int32 under distributed semaphores while the
// coordinator polls it to seed replicas. A worker that hits a fault
// releases if it can and retires; a worker whose host crashes inside
// the critical section takes the lock to its grave, parking the
// others — the coordinator never waits on workers, so that is
// tolerated, not a hang. Final assertions: the exact count when nobody
// died and no worker stopped; otherwise the value must not exceed the
// completed increments (recovery may roll it back, never forward). Its
// run is the Main of a row whose Define declares the semaphores.
type lockedPattern struct {
	// workers places worker w on a host; procName (one %d) names its
	// simulated process.
	workers  []int
	procName string
	rounds   int
	// Worker w does P(acquire[w]) … V(release[w]) around an increment.
	acquire, release []uint32
	// pause is slept after each round; zero means no sleep at all.
	pause time.Duration
	// noun names the shared value in verdicts.
	noun string
}

// round is one locked increment.
func (s *lockedPattern) round(wp *sim.Proc, host *cluster.Host, val dsm.Addr, w int, incr *int32) error {
	if err := host.Sync.PE(wp, s.acquire[w]); err != nil {
		return err
	}
	v, err := host.DSM.ReadInt32E(wp, val)
	if err == nil {
		err = host.DSM.WriteInt32E(wp, val, v+1)
	}
	if err != nil {
		host.Sync.VE(wp, s.release[w]) // best-effort: let the others run on before retiring
		return err
	}
	*incr++
	return host.Sync.VE(wp, s.release[w])
}

func (s *lockedPattern) run(p *sim.Proc, c *cluster.Cluster) error {
	h0 := c.Hosts[0]
	val, err := h0.DSM.Alloc(p, conv.Int32, chaosPageInts)
	if err != nil {
		return err
	}
	incr := make([]int32, len(s.workers))
	stopped := make([]error, len(s.workers))
	for w, h := range s.workers {
		host := c.Hosts[h]
		c.K.Spawn(fmt.Sprintf(s.procName, w), func(wp *sim.Proc) {
			for i := 0; i < s.rounds; i++ {
				if stopped[w] = s.round(wp, host, val, w, &incr[w]); stopped[w] != nil {
					return
				}
				if s.pause > 0 {
					wp.Sleep(s.pause)
				}
			}
		})
	}
	for c.K.Now() < sim.Time(activePhase) {
		h0.DSM.ReadInt32E(p, val) // poll to seed replicas; errors are transient
		p.Sleep(pollPeriod)
	}
	p.Sleep(settlePhase)

	died := anyDead(c)
	strict := !died
	var completed int32
	for w := range s.workers {
		completed += incr[w]
		if stopped[w] != nil {
			strict = false
		}
	}
	got, err := h0.DSM.ReadInt32E(p, val)
	switch {
	case err == nil:
		if want := int32(len(s.workers) * s.rounds); strict && got != want {
			return fmt.Errorf("%s = %d, want %d with every host alive", s.noun, got, want)
		}
		if got < 0 || got > completed+1 {
			// +1: a crashed worker may have committed its write locally
			// without living to record it.
			return fmt.Errorf("%s = %d, outside [0, %d]", s.noun, got, completed+1)
		}
	case tolerableLost(err, died):
	default:
		return fmt.Errorf("%s unreadable after settle: %w", s.noun, err)
	}
	return nil
}

// counterWorkload increments one shared counter from every host under
// one lock semaphore: exact under message faults, bounded under
// crashes.
var counterWorkload = &cluster.Workload{
	Name:   "counter",
	Desc:   "3 hosts, semaphore-locked shared counter (exact under message faults, bounded under crashes)",
	Kinds:  []arch.Kind{arch.Sun, arch.Firefly, arch.Sun},
	Define: func(c *cluster.Cluster) { c.DefineSemaphore(chaosSemLock, 0, 1) },
	Main: (&lockedPattern{
		workers:  []int{0, 1, 2},
		procName: "counter%d",
		rounds:   6,
		acquire:  []uint32{chaosSemLock, chaosSemLock, chaosSemLock},
		release:  []uint32{chaosSemLock, chaosSemLock, chaosSemLock},
		pause:    workPeriod,
		noun:     "counter",
	}).run,
}

// handoffWorkload ping-pongs ownership of one page between two hosts
// of different architectures: each worker waits for its own semaphore
// and signals its partner's, so each increment is a full ownership
// transfer with conversion and a crash has a wide window to land in
// the middle of a handoff — the exact scenario the manager's
// suspect-transfer reconciliation exists for.
var handoffWorkload = &cluster.Workload{
	Name:  "handoff",
	Desc:  "3 hosts, strict ownership ping-pong across architectures (crash mid-handoff)",
	Kinds: []arch.Kind{arch.Sun, arch.Sun, arch.Firefly},
	Define: func(c *cluster.Cluster) {
		c.DefineSemaphore(chaosSemPing, 0, 1)
		c.DefineSemaphore(chaosSemPong, 0, 0)
	},
	Main: (&lockedPattern{
		workers:  []int{1, 2},
		procName: "handoff%d",
		rounds:   4,
		acquire:  []uint32{chaosSemPing, chaosSemPong},
		release:  []uint32{chaosSemPong, chaosSemPing},
		noun:     "handoff value",
	}).run,
}
