package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/remoteop"
	"repro/internal/sctrace"
	"repro/internal/sim"
	"repro/internal/threads"
)

// detectionSettle is long enough for heartbeat silence to cross the
// death threshold (2×SuspicionTimeout = 2 s) and for the recovery sweep
// to finish.
const detectionSettle = 4 * time.Second

func TestOwnerCrashRecoversFromHeterogeneousCopyset(t *testing.T) {
	// The acceptance scenario: a Firefly owner dies mid-computation; the
	// page's Sun manager re-owns the page from the surviving Firefly
	// copyset member, converting the survivor's native representation,
	// and the computation completes with the dead host's writes intact.
	rec := sctrace.NewRecorder()
	c, err := New(Config{
		Hosts: []HostSpec{
			{Kind: arch.Sun},
			{Kind: arch.Firefly},
			{Kind: arch.Firefly},
		},
		Seed:             11,
		Directory:        dsm.DirCentral, // all pages managed by the Sun
		FailureDetection: true,
		InvariantChecks:  true,
		SCTrace:          rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := []int32{101, -202, 303, -404}
	c.Run(0, func(p *sim.Proc, h *Host) {
		addr, err := h.DSM.Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		// Firefly 1 writes (takes ownership), Firefly 2 reads (joins the
		// copyset) — the classic MRSW state before the crash.
		c.Hosts[1].DSM.WriteInt32s(p, addr, vals)
		got := make([]int32, len(vals))
		c.Hosts[2].DSM.ReadInt32s(p, addr, got)

		c.CrashHost(1)
		p.Sleep(detectionSettle)

		if !h.Detect.Dead(1) {
			t.Errorf("detector state for crashed host: %v, want dead", h.Detect.State(1))
		}
		// The manager's read must succeed via the recovered copy —
		// converted from host 2's Firefly representation to Sun.
		after := make([]int32, len(vals))
		if err := h.DSM.ReadInt32sE(p, addr, after); err != nil {
			t.Errorf("read after owner crash: %v", err)
			return
		}
		for i := range vals {
			if after[i] != vals[i] {
				t.Errorf("value %d after recovery = %d, want %d", i, after[i], vals[i])
			}
		}
		// The computation continues: the surviving Firefly writes, the
		// Sun reads the update.
		vals2 := []int32{7, 8, 9, 10}
		if err := c.Hosts[2].DSM.WriteInt32sE(p, addr, vals2); err != nil {
			t.Errorf("surviving host write after recovery: %v", err)
			return
		}
		if err := h.DSM.ReadInt32sE(p, addr, after); err != nil {
			t.Errorf("read of post-recovery write: %v", err)
			return
		}
		for i := range vals2 {
			if after[i] != vals2[i] {
				t.Errorf("post-recovery value %d = %d, want %d", i, after[i], vals2[i])
			}
		}
	})
	s := c.Hosts[0].DSM.Stats()
	if s.PagesRecovered == 0 {
		t.Fatalf("manager recovered no pages: %+v", s)
	}
	if s.PagesLost != 0 {
		t.Fatalf("pages declared lost despite a surviving copy: %+v", s)
	}
	if s.Conversions == 0 {
		t.Fatal("no conversion recorded: recovery from a Firefly survivor to a Sun manager must convert")
	}
	c.Check.CheckAll("teardown")
	if v := sctrace.Check(rec.Ops()); len(v) != 0 {
		t.Fatalf("SC trace violated across recovery:\n%s", sctrace.Report(v, 5))
	}
}

func TestSoleOwnerCrashLosesPage(t *testing.T) {
	// The dual scenario: the crashed owner held the only copy. The
	// manager, having polled every survivor, must declare the page lost;
	// accesses fail fast with ErrPageLost instead of wedging.
	c, err := New(Config{
		Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
		Seed:             12,
		Directory:        dsm.DirCentral,
		FailureDetection: true,
		InvariantChecks:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(0, func(p *sim.Proc, h *Host) {
		// Full-page allocations so the doomed page and the control page
		// are distinct 8 KB DSM pages.
		addr, err := h.DSM.Alloc(p, conv.Int32, 2048)
		if err != nil {
			t.Error(err)
			return
		}
		safe, err := h.DSM.Alloc(p, conv.Int32, 8)
		if err != nil {
			t.Error(err)
			return
		}
		// Host 1's write consumes every other copy: it becomes the sole
		// holder (owner with write access), then dies.
		c.Hosts[1].DSM.WriteInt32s(p, addr, []int32{1, 2, 3})
		c.CrashHost(1)
		p.Sleep(detectionSettle)

		var got [3]int32
		err = h.DSM.ReadInt32sE(p, addr, got[:])
		if !errors.Is(err, dsm.ErrPageLost) {
			t.Errorf("read of lost page: err = %v, want ErrPageLost", err)
		}
		// Failure is sticky and fast: a write fails the same way.
		if err := h.DSM.WriteInt32E(p, addr, 9); !errors.Is(err, dsm.ErrPageLost) {
			t.Errorf("write of lost page: err = %v, want ErrPageLost", err)
		}
		if !h.DSM.Lost(h.DSM.PageOf(addr)) {
			t.Error("Lost() false for a lost page")
		}
		// Isolation: pages the corpse never owned keep working.
		if err := h.DSM.WriteInt32E(p, safe, 42); err != nil {
			t.Errorf("unrelated page failed after crash: %v", err)
		}
	})
	if s := c.Hosts[0].DSM.Stats(); s.PagesLost == 0 {
		t.Fatalf("no page declared lost: %+v", s)
	}
	c.Check.CheckAll("teardown")
}

func TestManagerCrashIsolatesItsPageRange(t *testing.T) {
	// Fixed distributed managers: killing host 1 makes the pages it
	// manages unavailable (ErrHostDown) while pages managed by the
	// survivors keep working — unavailable but isolated.
	c, err := New(Config{
		Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Sun}, {Kind: arch.Sun}},
		Seed:             13,
		FailureDetection: true,
		InvariantChecks:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(0, func(p *sim.Proc, h *Host) {
		// Three full 8 KB pages: page i is managed by host i.
		var addrs [3]dsm.Addr
		for i := range addrs {
			a, err := h.DSM.Alloc(p, conv.Int32, 2048)
			if err != nil {
				t.Error(err)
				return
			}
			addrs[i] = a
			if got, want := int(h.DSM.Manager(h.DSM.PageOf(a))), i; got != want {
				t.Errorf("page of alloc %d managed by %d, want %d", i, got, want)
				return
			}
		}
		// Host 1 owns its own page before dying.
		c.Hosts[1].DSM.WriteInt32s(p, addrs[1], []int32{5})
		c.CrashHost(1)
		p.Sleep(detectionSettle)

		var v [1]int32
		if err := h.DSM.ReadInt32sE(p, addrs[1], v[:]); !errors.Is(err, dsm.ErrHostDown) {
			t.Errorf("access to the dead manager's range: err = %v, want ErrHostDown", err)
		}
		if err := h.DSM.WriteInt32E(p, addrs[0], 7); err != nil {
			t.Errorf("own range failed: %v", err)
		}
		if err := h.DSM.WriteInt32E(p, addrs[2], 8); err != nil {
			t.Errorf("surviving manager's range failed: %v", err)
		}
		if err := c.Hosts[2].DSM.ReadInt32sE(p, addrs[2], v[:]); err != nil || v[0] != 8 {
			t.Errorf("surviving range read = %d, %v; want 8, nil", v[0], err)
		}
	})
	c.Check.CheckAll("teardown")
}

func TestUpdateWriteFaultReturnsHostDown(t *testing.T) {
	// A write-update write reaches residency through the same fault path
	// as every paged engine: with the page's manager dead, a write to a
	// non-resident page returns ErrHostDown through the E-accessor
	// instead of panicking.
	c, err := New(Config{
		Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Sun}, {Kind: arch.Sun}},
		Seed:             13,
		Policy:           dsm.PolicyUpdate,
		FailureDetection: true,
		InvariantChecks:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(0, func(p *sim.Proc, h *Host) {
		// Two full 8 KB pages: the second is managed by host 1.
		var addr dsm.Addr
		for i := 0; i < 2; i++ {
			if addr, err = h.DSM.Alloc(p, conv.Int32, 2048); err != nil {
				t.Error(err)
				return
			}
		}
		if got := h.DSM.Manager(h.DSM.PageOf(addr)); got != 1 {
			t.Errorf("second page managed by %d, want 1", got)
			return
		}
		c.CrashHost(1)
		p.Sleep(detectionSettle)
		if err := c.Hosts[2].DSM.WriteInt32sE(p, addr, []int32{9}); !errors.Is(err, dsm.ErrHostDown) {
			t.Errorf("write to the dead manager's range: err = %v, want ErrHostDown", err)
		}
	})
	c.Check.CheckAll("teardown")
}

func TestUpdatePushOutlivesDeadReplica(t *testing.T) {
	// A replica holder dies just before a write-update push reaches it:
	// the manager's round fails on the corpse and is sent again to the
	// survivors once the detector declares it dead, instead of
	// panicking the manager. The writer's call gives up before that, so
	// the write reports an error although it was sequenced; the writer
	// keeps its replica, and the manager, sequencing that late, pushes
	// the update to it as well. Every surviving replica, and a host that
	// faults the page in afterwards, reads the written value.
	for _, tc := range []struct {
		name    string
		page    int   // the page written, managed by host page
		readers []int // replica holders before the crash, besides the owner
		writer  int
	}{
		// Page 0's manager is also its owner, host 0.
		{name: "replica-writes", page: 0, readers: []int{1, 2, 3}, writer: 2},
		// Update writes never move ownership, so page 3 keeps owner 0,
		// the allocation manager: the writer holds the copy the manager
		// routes host 3's read fault to.
		{name: "owner-writes", page: 3, readers: []int{1, 2}, writer: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Sun}, {Kind: arch.Sun}, {Kind: arch.Sun}},
				Seed:             17,
				Policy:           dsm.PolicyUpdate,
				FailureDetection: true,
				InvariantChecks:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Run(0, func(p *sim.Proc, h *Host) {
				// Full 8 KB pages, the last one the page written.
				var addr dsm.Addr
				for i := 0; i <= tc.page; i++ {
					if addr, err = h.DSM.Alloc(p, conv.Int32, 2048); err != nil {
						t.Error(err)
						return
					}
				}
				if got := h.DSM.Manager(h.DSM.PageOf(addr)); got != dsm.HostID(tc.page) {
					t.Errorf("page managed by %d, want %d", got, tc.page)
					return
				}
				var v [1]int32
				for _, i := range tc.readers {
					if err := c.Hosts[i].DSM.ReadInt32sE(p, addr, v[:]); err != nil {
						t.Errorf("host %d read: %v", i, err)
						return
					}
				}
				c.CrashHost(1)
				_ = c.Hosts[tc.writer].DSM.WriteInt32sE(p, addr, []int32{42})
				p.Sleep(10 * time.Second)
				for _, i := range []int{0, 2, 3} {
					if err := c.Hosts[i].DSM.ReadInt32sE(p, addr, v[:]); err != nil || v[0] != 42 {
						t.Errorf("host %d read = %d, %v; want 42, nil", i, v[0], err)
					}
				}
			})
			c.Check.CheckAll("teardown")
			// Two pushes in the round that failed, one in the round sent
			// again, one to the writer.
			if n := c.TotalDSMStats().UpdatePushes; n != 4 {
				t.Errorf("update pushes = %d, want 4", n)
			}
		})
	}
}

func TestScriptedCrashPlanIsDeterministic(t *testing.T) {
	// The same seed and fault plan must produce bit-identical runs:
	// same virtual duration, same stats, same recovery outcome.
	run := func() string {
		c, err := New(Config{
			Hosts: []HostSpec{
				{Kind: arch.Sun},
				{Kind: arch.Firefly},
				{Kind: arch.Firefly},
			},
			Seed:             21,
			Directory:        dsm.DirCentral,
			FailureDetection: true,
			InvariantChecks:  true,
			FaultPlan: &netsim.FaultPlan{
				Loss:    []netsim.Burst{{Window: netsim.Window{From: sim.Time(50 * time.Millisecond), Until: sim.Time(150 * time.Millisecond)}, Rate: 0.3}},
				Crashes: []netsim.CrashEvent{{At: sim.Time(300 * time.Millisecond), Host: 2}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var tail string
		elapsed := c.Run(0, func(p *sim.Proc, h *Host) {
			addr, err := h.DSM.Alloc(p, conv.Int32, 64)
			if err != nil {
				t.Error(err)
				return
			}
			// Ping-pong the page between the Fireflies across the loss
			// window and host 2's scripted death. Each writer is its own
			// proc: the one executing inside the crashed module at 300 ms
			// dies with its host, while the other keeps going — main only
			// sleeps, so it can never be unwound by the crash.
			for w := 1; w <= 2; w++ {
				host := c.Hosts[w]
				c.K.Spawn(fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
					for i := 0; i < 20; i++ {
						if err := host.DSM.WriteInt32E(wp, addr+dsm.Addr(4*((i*2)%64)), int32(i)); err != nil {
							tail += fmt.Sprintf("w%d.%d:%v;", host.ID, i, errors.Unwrap(err) != nil)
						}
						wp.Sleep(40 * time.Millisecond)
					}
				})
			}
			p.Sleep(time.Second + detectionSettle)
			buf := make([]int32, 64)
			if err := h.DSM.ReadInt32sE(p, addr, buf); err != nil {
				tail += fmt.Sprintf("final-read:%v", errors.Is(err, dsm.ErrPageLost))
			} else {
				tail += fmt.Sprintf("final:%v", buf)
			}
		})
		s := c.TotalDSMStats()
		n := c.Net.Stats()
		return fmt.Sprintf("t=%v recovered=%d lost=%d fetched=%d dropped=%d cut=%d toDead=%d %s",
			elapsed, s.PagesRecovered, s.PagesLost, s.PagesFetched, n.FramesDropped, n.FramesCut, n.FramesToDead, tail)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("faulty runs diverged:\n  %s\n  %s", a, b)
	}
}

// TestBadFaultPlanRejectedByNew pins where a malformed plan stops: at
// New, with an error naming the fault, instead of a panic in mid-run
// (a crash of host 9 of 3 once died with "index out of range" inside
// its crash callback, at its virtual time).
func TestBadFaultPlanRejectedByNew(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	for _, tc := range []struct {
		name string
		plan netsim.FaultPlan
		want string // "" means the plan is valid
	}{
		{"valid", netsim.FaultPlan{
			Loss:       []netsim.Burst{{Rate: 1}, {Window: netsim.Window{From: ms(5), Until: ms(5)}}},
			Partitions: []netsim.Partition{{Group: []netsim.HostID{0, 2}}},
			Crashes:    []netsim.CrashEvent{{At: ms(3), Host: 2}},
		}, ""},
		{"crash host out of range", netsim.FaultPlan{Crashes: []netsim.CrashEvent{{At: ms(10), Host: 9}}}, "names host 9, have 3 hosts"},
		{"negative crash host", netsim.FaultPlan{Crashes: []netsim.CrashEvent{{Host: -1}}}, "names host -1"},
		{"partition member out of range", netsim.FaultPlan{Partitions: []netsim.Partition{{Group: []netsim.HostID{1, 3}}}}, "names host 3"},
		{"link cut on a bus", netsim.FaultPlan{LinkCuts: []netsim.LinkCut{{A: 0, B: 1}}}, "link cut joins segments 0-1, have 1 segments"},
		{"rate above 1", netsim.FaultPlan{Corrupt: []netsim.Burst{{Rate: 1.5}}}, "fault rate 1.5 outside [0, 1]"},
		{"negative rate", netsim.FaultPlan{Duplicate: []netsim.Burst{{}, {Rate: -0.1}}}, "fault rate -0.1 outside"},
		{"window closes before it opens", netsim.FaultPlan{Loss: []netsim.Burst{{Window: netsim.Window{From: ms(20), Until: ms(10)}, Rate: 0.5}}}, "closes before it opens"},
		{"partition window reversed", netsim.FaultPlan{Partitions: []netsim.Partition{{Window: netsim.Window{From: ms(2), Until: ms(1)}, Group: []netsim.HostID{1}}}}, "closes before it opens"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan
			c, err := New(Config{
				Hosts:     []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}, {Kind: arch.Firefly}},
				FaultPlan: &plan,
			})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid plan rejected: %v", err)
				}
				c.Close()
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestDeadSyncManagerSurfacesError(t *testing.T) {
	// A primitive whose manager host crashed: every E-form must return
	// an error wrapping the endpoint's fail-fast instead of blocking
	// forever.
	for _, tc := range []struct {
		name   string
		define func(c *Cluster)
		op     func(h *Host, p *sim.Proc) error
	}{
		{"PE", func(c *Cluster) { c.DefineSemaphore(1, 1, 0) }, func(h *Host, p *sim.Proc) error { return h.Sync.PE(p, 1) }},
		{"VE", func(c *Cluster) { c.DefineSemaphore(1, 1, 0) }, func(h *Host, p *sim.Proc) error { return h.Sync.VE(p, 1) }},
		{"EventWaitE", func(c *Cluster) { c.DefineEvent(1, 1) }, func(h *Host, p *sim.Proc) error { return h.Sync.EventWaitE(p, 1) }},
		{"EventSetE", func(c *Cluster) { c.DefineEvent(1, 1) }, func(h *Host, p *sim.Proc) error { return h.Sync.EventSetE(p, 1) }},
		{"BarrierArriveE", func(c *Cluster) { c.DefineBarrier(1, 1, 2) }, func(h *Host, p *sim.Proc) error { return h.Sync.BarrierArriveE(p, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Sun}},
				Seed:             31,
				FailureDetection: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.define(c)
			c.Run(0, func(p *sim.Proc, h *Host) {
				c.CrashHost(1)
				p.Sleep(detectionSettle)
				if err := tc.op(h, p); !errors.Is(err, remoteop.ErrPeerDead) {
					t.Errorf("%s on a primitive whose manager died: err = %v, want ErrPeerDead", tc.name, err)
				}
			})
		})
	}
}

func TestNoFaultRunsUnchangedByDetectionMachinery(t *testing.T) {
	// With FailureDetection off (the default), a cluster built from this
	// code must behave bit-identically to one built before the fault
	// work: same virtual duration, same stats (elapsed, pages fetched,
	// write faults, upgrades), pinned. Two runs double as the
	// determinism guard.
	const want = "172.453408ms 9 9 0"
	run := func() string {
		c, err := New(Config{
			Hosts: []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
			Seed:  5,
		})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := c.Run(0, func(p *sim.Proc, h *Host) {
			addr, err := h.DSM.Alloc(p, conv.Int32, 32)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				c.Hosts[i%2].DSM.WriteInt32(p, addr, int32(i))
			}
		})
		s := c.TotalDSMStats()
		return fmt.Sprintf("%v %d %d %d", elapsed, s.PagesFetched, s.WriteFaults, s.Upgrades)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("no-fault runs diverged: %s vs %s", a, b)
	}
	if a != want {
		t.Fatalf("no-fault run = %s, want %s", a, want)
	}
}

// TestPartitionWithoutDetectorReturnsHostDown pins the failure contract
// on a cluster built without FailureDetection: a page fault whose
// manager stays cut off past every retransmission and fault retry
// returns ErrHostDown from the E-form, and the plain form panics with
// that error behind the host prefix.
func TestPartitionWithoutDetectorReturnsHostDown(t *testing.T) {
	c, err := New(Config{
		Hosts: []HostSpec{{Kind: arch.Sun}, {Kind: arch.Sun}},
		Seed:  41,
		FaultPlan: &netsim.FaultPlan{Partitions: []netsim.Partition{{
			Window: netsim.Window{From: sim.Time(time.Second), Until: sim.Time(600 * time.Second)},
			Group:  []netsim.HostID{0},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(1, func(p *sim.Proc, h *Host) {
		addr, err := h.DSM.Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		if mgr := h.DSM.Manager(h.DSM.PageOf(addr)); mgr != 0 {
			t.Errorf("page managed by host %d, want 0", mgr)
			return
		}
		p.Sleep(sim.Time(2 * time.Second).Sub(c.K.Now()))
		buf := make([]int32, 16)
		err = h.DSM.ReadInt32sE(p, addr, buf)
		if !errors.Is(err, dsm.ErrHostDown) {
			t.Errorf("ReadInt32sE across the cut: err = %v, want ErrHostDown", err)
			return
		}
		defer func() {
			r := recover()
			perr, ok := r.(error)
			if !ok || !errors.Is(perr, dsm.ErrHostDown) || !strings.HasPrefix(perr.Error(), "dsm: host 1: ") {
				t.Errorf("ReadInt32s across the cut panicked with %v, want %q and ErrHostDown", r, "dsm: host 1: ")
			}
		}()
		h.DSM.ReadInt32s(p, addr, buf)
	})
}

// TestDynamicOwnerCutOffFailsWithoutPanic cuts a dynamic page's owner
// off and writes the page from a survivor, with and without a failure
// detector. Without one, the forwarder whose next hop timed out points
// its hint at the requester, so the request comes home; the write ends
// in faultPage's bounded retry with ErrHostDown. With one, the owner is
// declared dead and recovery finds no other copy: ErrPageLost. Neither
// run may panic.
func TestDynamicOwnerCutOffFailsWithoutPanic(t *testing.T) {
	for _, tt := range []struct {
		detect bool
		want   error
		within time.Duration
	}{
		{detect: false, want: dsm.ErrHostDown, within: 60 * time.Second},
		{detect: true, want: dsm.ErrPageLost, within: 2 * time.Second},
	} {
		t.Run(fmt.Sprintf("detect=%v", tt.detect), func(t *testing.T) {
			c, err := New(Config{
				Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Sun}, {Kind: arch.Sun}},
				Seed:             47,
				Directory:        dsm.DirDynamic,
				FailureDetection: tt.detect,
				FaultPlan: &netsim.FaultPlan{Partitions: []netsim.Partition{{
					Window: netsim.Window{From: sim.Time(time.Second), Until: sim.Time(600 * time.Second)},
					Group:  []netsim.HostID{2},
				}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Run(1, func(p *sim.Proc, h *Host) {
				addr, err := h.DSM.Alloc(p, conv.Int32, 16)
				if err != nil {
					t.Error(err)
					return
				}
				c.Hosts[2].DSM.WriteInt32(p, addr, 7)
				p.Sleep(sim.Time(2 * time.Second).Sub(c.K.Now()))
				start := c.K.Now()
				err = h.DSM.WriteInt32E(p, addr, 8)
				if took := c.K.Now().Sub(start); !errors.Is(err, tt.want) || took > tt.within {
					t.Errorf("WriteInt32E with the owner cut off: err = %v after %v, want %v within %v", err, took, tt.want, tt.within)
				}
			})
		})
	}
}

// TestThreadOutlivesDeadCreator runs a thread whose creator crashes
// before the thread ends: its exit notification fails, and the run
// goes on.
func TestThreadOutlivesDeadCreator(t *testing.T) {
	c, err := New(Config{
		Hosts:            []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
		Seed:             43,
		FailureDetection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const fn threads.FuncID = 1
	finished := false
	if err := c.Funcs.Register(fn, func(t *threads.Thread, _ []uint32) {
		t.P.Sleep(time.Second)
		finished = true
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(0, func(p *sim.Proc, h *Host) {
		if _, err := h.Threads.Create(p, 1, fn, nil); err != nil {
			t.Error(err)
			return
		}
		c.CrashHost(0)
		// Long enough for the notification to run out of retransmissions
		// or hit the detector's verdict.
		p.Sleep(20 * time.Second)
	})
	if !finished {
		t.Error("the thread on host 1 never finished")
	}
}
