package cluster

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/threads"
)

func sunAndFireflies(n int) Config {
	hosts := []HostSpec{{Kind: arch.Sun}}
	for i := 0; i < n; i++ {
		hosts = append(hosts, HostSpec{Kind: arch.Firefly, CPUs: 4})
	}
	return Config{Hosts: hosts, Seed: 1}
}

func TestEmptyConfigRejected(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

// TestDefineRejectsUnservablePrimitive: a primitive managed by a host
// the cluster lacks would leave every remote operation retransmitting
// forever, and a barrier of no participants would let every arrival
// through; both are refused at definition, naming the primitive.
func TestDefineRejectsUnservablePrimitive(t *testing.T) {
	cases := []struct {
		name   string
		define func(c *Cluster)
		want   string
	}{
		{"semaphore manager", func(c *Cluster) { c.DefineSemaphore(1, 9, 1) }, "cluster: semaphore 1: manager 9 is not a host of this 3-host cluster"},
		{"negative manager", func(c *Cluster) { c.DefineSemaphore(2, -1, 0) }, "cluster: semaphore 2: manager -1 is not a host of this 3-host cluster"},
		{"event manager", func(c *Cluster) { c.DefineEvent(3, 3) }, "cluster: event 3: manager 3 is not a host of this 3-host cluster"},
		{"barrier manager", func(c *Cluster) { c.DefineBarrier(4, 5, 2) }, "cluster: barrier 4: manager 5 is not a host of this 3-host cluster"},
		{"barrier size 0", func(c *Cluster) { c.DefineBarrier(5, 0, 0) }, "cluster: barrier 5: 0 participants, want at least 1"},
		{"barrier size -2", func(c *Cluster) { c.DefineBarrier(6, 1, -2) }, "cluster: barrier 6: -2 participants, want at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(sunAndFireflies(2))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var got any
			func() {
				defer func() { got = recover() }()
				tc.define(c)
			}()
			if got != tc.want {
				t.Fatalf("recovered %v, want %q", got, tc.want)
			}
		})
	}
	// The bounds are the cluster's: its last host and a one-participant
	// barrier are accepted.
	c, err := New(sunAndFireflies(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.DefineSemaphore(7, 2, 0)
	c.DefineEvent(8, 2)
	c.DefineBarrier(9, 2, 1)
}

func TestEndToEndMasterSlaveSum(t *testing.T) {
	// Master on the Sun fills a shared array; slave threads on the
	// Fireflies sum disjoint halves into a result array; the master
	// collects. Exercises DSM, remote threads, and semaphores together.
	cfg := sunAndFireflies(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const semDone = 1
	c.DefineSemaphore(semDone, 0, 0)

	const n = 1000
	var dataAddr, outAddr uint32
	c.Funcs.MustRegister(1, func(th *threads.Thread, args []uint32) {
		lo, hi, slot := int(args[0]), int(args[1]), int(args[2])
		buf := make([]int32, hi-lo)
		h := c.Hosts[th.Host()]
		h.DSM.ReadInt32s(th.P, dsm.Addr(dataAddr)+dsm.Addr(4*lo), buf)
		var sum int32
		for _, v := range buf {
			sum += v
		}
		th.Compute(time.Duration(hi-lo) * time.Microsecond)
		h.DSM.WriteInt32s(th.P, dsm.Addr(outAddr)+dsm.Addr(4*slot), []int32{sum})
		h.Sync.V(th.P, semDone)
	})

	elapsed := c.Run(0, func(p *sim.Proc, h *Host) {
		a, err := h.DSM.Alloc(p, conv.Int32, n)
		if err != nil {
			t.Error(err)
			return
		}
		out, err := h.DSM.Alloc(p, conv.Int32, 2)
		if err != nil {
			t.Error(err)
			return
		}
		dataAddr, outAddr = uint32(a), uint32(out)
		vals := make([]int32, n)
		var want int32
		for i := range vals {
			vals[i] = int32(i * 3)
			want += vals[i]
		}
		h.DSM.WriteInt32s(p, a, vals)

		if _, err := h.Threads.Create(p, 1, 1, []uint32{0, n / 2, 0}); err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Threads.Create(p, 2, 1, []uint32{n / 2, n, 1}); err != nil {
			t.Error(err)
			return
		}
		h.Sync.P(p, semDone)
		h.Sync.P(p, semDone)

		var sums [2]int32
		h.DSM.ReadInt32s(p, out, sums[:])
		if sums[0]+sums[1] != want {
			t.Errorf("distributed sum %d, want %d", sums[0]+sums[1], want)
		}
	})
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestSyncDefinitionsAndStats(t *testing.T) {
	c, err := New(sunAndFireflies(2))
	if err != nil {
		t.Fatal(err)
	}
	c.DefineEvent(5, 1)
	c.DefineBarrier(6, 0, 2)
	c.DefineSemaphore(7, 2, 0)
	released := 0
	c.Funcs.MustRegister(2, func(th *threads.Thread, args []uint32) {
		h := c.Hosts[th.Host()]
		h.Sync.EventWait(th.P, 5)
		h.Sync.BarrierArrive(th.P, 6)
		released++
		h.Sync.V(th.P, 7)
	})
	c.Run(0, func(p *sim.Proc, h *Host) {
		if _, err := h.Threads.Create(p, 1, 2, nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Threads.Create(p, 2, 2, nil); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * time.Millisecond)
		h.Sync.EventSet(p, 5)
		h.Sync.P(p, 7)
		h.Sync.P(p, 7)

		// Touch DSM so aggregate stats are non-trivial.
		addr, err := h.DSM.Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		c.Hosts[1].DSM.WriteInt32s(p, addr, []int32{9})
	})
	if released != 2 {
		t.Fatalf("released %d, want 2", released)
	}
	total := c.TotalDSMStats()
	if total.PagesFetched == 0 || total.WriteFaults == 0 {
		t.Fatalf("aggregate stats empty: %+v", total)
	}
}

// TestTotalDSMStatsSumsEveryHost: the cluster total is the per-host
// sum. The write-update counters are the regression — a hand-written
// field list left them out and reported 0 (dsm's
// TestStatsAddCoversEveryField guards the rest).
func TestTotalDSMStatsSumsEveryHost(t *testing.T) {
	cfg := sunAndFireflies(2)
	cfg.Policy = dsm.PolicyUpdate
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(0, func(p *sim.Proc, h *Host) {
		addr, err := h.DSM.Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		var v [1]int32
		for _, peer := range c.Hosts[1:] {
			peer.DSM.ReadInt32s(p, addr, v[:])
		}
		c.Hosts[1].DSM.WriteInt32s(p, addr, []int32{9})
	})
	sum := 0
	for _, h := range c.Hosts {
		s := h.DSM.Stats()
		sum += s.UpdateWrites + s.UpdatePushes + s.UpdatesApplied
	}
	total := c.TotalDSMStats()
	if got := total.UpdateWrites + total.UpdatePushes + total.UpdatesApplied; sum == 0 || got != sum {
		t.Errorf("update counters total %d, per-host sum %d (want equal and non-zero)", got, sum)
	}
}

func TestRunPanicsOnDeadlock(t *testing.T) {
	c, err := New(sunAndFireflies(1))
	if err != nil {
		t.Fatal(err)
	}
	c.DefineSemaphore(9, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked main did not panic")
		}
	}()
	c.Run(0, func(p *sim.Proc, h *Host) {
		h.Sync.P(p, 9) // never granted; queue drains; Run must panic
	})
}

// A config rejected at its last host must not leave the earlier hosts'
// server loops parked on the abandoned kernel.
func TestNewShutsKernelDownOnLateError(t *testing.T) {
	cfg := Config{Hosts: []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}, {Kind: arch.Sun, CPUs: 4}}, Seed: 1}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := New(cfg); err == nil {
			t.Fatal("a 4-CPU Sun was accepted")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("50 rejected builds grew the goroutine count from %d to %d", before, after)
	}
}

// The per-host server is events, not a process: a built cluster, however
// large, holds no coroutine until something runs on it.
func TestNewOf1024HostsAddsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := New(sunAndFireflies(1023))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("building 1024 hosts moved the goroutine count from %d to %d", before, after)
	}
}

// kernelCountsCell runs the three phases of exp.DirectoryScaling
// (migratory write ring, full-copyset read, one invalidating write) on a
// fixed 64-host switched cell, with ch installed if non-nil, and returns
// the kernel's counters.
func kernelCountsCell(t *testing.T, ch sim.Chooser) sim.Counts {
	const (
		n     = 64
		pages = 8
		per   = 256 // int32s per 1 KB page
	)
	cfg := sunAndFireflies(n - 1)
	cfg.PageSize = 1024
	cfg.Directory = dsm.DirDynamic
	cfg.Topology = netsim.SwitchedStar(2, 32)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.K.SetChooser(ch)
	c.Run(0, func(p *sim.Proc, h0 *Host) {
		addr, err := h0.DSM.Alloc(p, conv.Int32, per*pages)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 1; i < n; i++ {
			c.Hosts[i].DSM.WriteInt32(p, addr+dsm.Addr(4*per*(1+i%(pages-1))), int32(i))
		}
		for i := 1; i < n; i++ {
			c.Hosts[i].DSM.ReadInt32(p, addr)
		}
		c.Hosts[1].DSM.WriteInt32(p, addr, 42)
		if got := c.Hosts[n-1].DSM.ReadInt32(p, addr); got != 42 {
			t.Errorf("stale read %d after the invalidating write, want 42", got)
		}
	})
	if s := c.K.Stalled(); len(s) != 0 {
		t.Errorf("processes left parked after the run: %v (the net server is not one)", s)
	}
	return c.K.Counts()
}

// TestKernelCountsPinned pins the kernel's deterministic work counters
// on kernelCountsCell. Events is the simulation: the same number since
// a parked process began to dispatch events and the net server became a
// pair of events. Resumes and Spawns are what reply-only handlers
// running as events saved: when each request spawned a process, the
// cell resumed coroutines 3057 times, and "three quarters of the
// coroutine switches gone" is the bound below.
func TestKernelCountsPinned(t *testing.T) {
	const parentResumes = 3057
	got := kernelCountsCell(t, nil)
	if want := (sim.Counts{Events: 8769, Resumes: 812, Spawns: 186}); got != want {
		t.Errorf("kernel counts %+v, want %+v", got, want)
	}
	if got.Resumes > parentResumes*3/10 {
		t.Errorf("%d coroutine resumes, more than 0.3 × the parent's %d", got.Resumes, parentResumes)
	}
}

// digestChooser takes the first alternative at every choice point — the
// order a run without a chooser keeps — and folds the instant and every
// alternative's label into an FNV-64: the dispatched (time, label)
// sequence wherever events tie.
type digestChooser struct{ h hash.Hash64 }

func (c *digestChooser) Choose(now sim.Time, n int, label func(int) string) int {
	fmt.Fprintf(c.h, "%d", now)
	for i := 0; i < n; i++ {
		c.h.Write([]byte(label(i)))
		c.h.Write([]byte{0})
	}
	return 0
}

// TestDispatchSequencePinned holds the labelled order of kernelCountsCell
// to the one its processes made before reply-only handlers ran as
// events: the digest below was taken at that commit.
func TestDispatchSequencePinned(t *testing.T) {
	const parentDigest = 0x55f1a7e1a81f146a
	ch := &digestChooser{h: fnv.New64a()}
	kernelCountsCell(t, ch)
	if got := ch.h.Sum64(); got != parentDigest {
		t.Errorf("dispatch sequence digest %#x, want %#x", got, uint64(parentDigest))
	}
}
