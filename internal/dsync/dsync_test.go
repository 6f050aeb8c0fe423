package dsync

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

type rig struct {
	k    *sim.Kernel
	net  *netsim.Network
	svcs []*Service
	par  *model.Params
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	params := model.Default()
	net := netsim.New(k, &params)
	r := &rig{k: k, net: net, par: &params}
	kinds := []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly, arch.Sun}
	for i := 0; i < n; i++ {
		ifc, err := net.Attach(netsim.HostID(i))
		if err != nil {
			t.Fatal(err)
		}
		ep := remoteop.New(k, ifc, kinds[i%len(kinds)], &params)
		svc := New(k, ep, kinds[i%len(kinds)], &params)
		ep.Start()
		r.svcs = append(r.svcs, svc)
	}
	return r
}

func (r *rig) defineSem(id uint32, mgr HostID, initial int) {
	for _, s := range r.svcs {
		s.DefineSemaphore(id, mgr, initial)
	}
}

func (r *rig) defineEvent(id uint32, mgr HostID) {
	for _, s := range r.svcs {
		s.DefineEvent(id, mgr)
	}
}

func (r *rig) defineBarrier(id uint32, mgr HostID, n int) {
	for _, s := range r.svcs {
		s.DefineBarrier(id, mgr, n)
	}
}

func TestLocalSemaphorePV(t *testing.T) {
	r := newRig(t, 1)
	r.defineSem(1, 0, 1)
	var acquired, released sim.Time
	r.k.Spawn("a", func(p *sim.Proc) {
		r.svcs[0].P(p, 1)
		p.Sleep(10 * time.Millisecond)
		r.svcs[0].V(p, 1)
		released = p.Now()
	})
	r.k.Spawn("b", func(p *sim.Proc) {
		r.svcs[0].P(p, 1)
		acquired = p.Now()
	})
	r.k.Run()
	if acquired < released {
		t.Fatalf("second P at %v before V at %v", acquired, released)
	}
}

func TestRemoteSemaphoreBlocksUntilV(t *testing.T) {
	r := newRig(t, 3)
	r.defineSem(1, 0, 0)
	var acquired sim.Time
	r.k.Spawn("waiter", func(p *sim.Proc) {
		r.svcs[1].P(p, 1) // remote P, blocks
		acquired = p.Now()
	})
	r.k.Spawn("poster", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		r.svcs[2].V(p, 1) // remote V
	})
	r.k.Run()
	if acquired < sim.Time(50*time.Millisecond) {
		t.Fatalf("P granted at %v, before the V at 50ms", acquired)
	}
}

func TestSemaphoreLongBlockSurvivesRetransmission(t *testing.T) {
	// The P must wait far longer than the blocking retry interval; the
	// retransmissions must not corrupt the count.
	r := newRig(t, 2)
	r.defineSem(1, 0, 0)
	var acquired sim.Time
	r.k.Spawn("waiter", func(p *sim.Proc) {
		r.svcs[1].P(p, 1)
		acquired = p.Now()
	})
	r.k.Spawn("poster", func(p *sim.Proc) {
		p.Sleep(30 * time.Second) // several retry intervals
		r.svcs[0].V(p, 1)
	})
	r.k.Run()
	if acquired < sim.Time(30*time.Second) {
		t.Fatalf("P granted at %v, want ≥30s", acquired)
	}
	// A subsequent P must block (count must be 0, not inflated by
	// retransmitted grants). A blocked remote P retransmits forever, so
	// bound the run in virtual time rather than draining the queue.
	extra := false
	r.k.Spawn("second", func(p *sim.Proc) {
		r.svcs[1].P(p, 1)
		extra = true
	})
	r.k.RunFor(time.Minute)
	if extra {
		t.Fatal("second P succeeded; retransmissions inflated the count")
	}
}

func TestCountingSemaphoreFIFO(t *testing.T) {
	r := newRig(t, 4)
	r.defineSem(1, 0, 2)
	var order []int
	for i := 1; i < 4; i++ {
		i := i
		r.k.Spawn("w", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // deterministic arrival order
			r.svcs[i].P(p, 1)
			order = append(order, i)
		})
	}
	r.k.RunFor(time.Minute) // the third P blocks and retransmits forever
	if len(order) != 2 {
		t.Fatalf("%d P's granted with count 2, want 2", len(order))
	}
	r.k.Spawn("v", func(p *sim.Proc) { r.svcs[0].V(p, 1) })
	r.k.RunFor(time.Minute)
	if len(order) != 3 {
		t.Fatalf("V did not release the queued waiter")
	}
}

func TestEventBroadcastAcrossHosts(t *testing.T) {
	r := newRig(t, 4)
	r.defineEvent(5, 2)
	released := 0
	for i := 0; i < 4; i++ {
		i := i
		r.k.Spawn("w", func(p *sim.Proc) {
			r.svcs[i].EventWait(p, 5)
			released++
		})
	}
	r.k.Spawn("setter", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		r.svcs[3].EventSet(p, 5)
	})
	r.k.Run()
	if released != 4 {
		t.Fatalf("%d waiters released, want 4", released)
	}
}

func TestEventWaitAfterSetReturnsImmediately(t *testing.T) {
	r := newRig(t, 2)
	r.defineEvent(5, 0)
	done := false
	r.k.Spawn("main", func(p *sim.Proc) {
		r.svcs[0].EventSet(p, 5)
		r.svcs[1].EventWait(p, 5)
		done = true
	})
	r.k.Run()
	if !done {
		t.Fatal("wait on set event blocked")
	}
}

func TestBarrierAcrossHosts(t *testing.T) {
	r := newRig(t, 4)
	r.defineBarrier(9, 1, 4)
	var times []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		r.k.Spawn("w", func(p *sim.Proc) {
			p.Sleep(time.Duration(i*10) * time.Millisecond)
			r.svcs[i].BarrierArrive(p, 9)
			times = append(times, p.Now())
		})
	}
	r.k.Run()
	if len(times) != 4 {
		t.Fatalf("%d released, want 4", len(times))
	}
	for _, at := range times {
		if at < sim.Time(30*time.Millisecond) {
			t.Fatalf("released at %v before last arrival at 30ms", at)
		}
	}
}

func TestBarrierReusableAfterRelease(t *testing.T) {
	r := newRig(t, 2)
	r.defineBarrier(9, 0, 2)
	rounds := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 2; i++ {
			i := i
			r.k.Spawn("w", func(p *sim.Proc) {
				r.svcs[i].BarrierArrive(p, 9)
				rounds++
			})
		}
		r.k.Run()
	}
	if rounds != 6 {
		t.Fatalf("%d arrivals released over 3 rounds, want 6", rounds)
	}
}

func TestUndefinedPrimitivePanics(t *testing.T) {
	r := newRig(t, 1)
	var recovered bool
	r.k.Spawn("main", func(p *sim.Proc) {
		defer func() { recovered = recover() != nil }()
		r.svcs[0].P(p, 42)
	})
	func() {
		defer func() { _ = recover() }() // kernel re-panics; absorb
		r.k.Run()
	}()
	if !recovered {
		t.Fatal("undefined semaphore did not panic")
	}
}

func TestSyncSurvivesPacketLoss(t *testing.T) {
	r := newRig(t, 3)
	r.net.SetFaultPlan(&netsim.FaultPlan{Loss: []netsim.Burst{{Rate: 0.3}}})
	r.par.RequestTimeout = 50 * time.Millisecond
	r.par.BlockingRetryInterval = 100 * time.Millisecond
	r.defineSem(1, 0, 0)
	granted := 0
	for i := 1; i < 3; i++ {
		i := i
		r.k.Spawn("w", func(p *sim.Proc) {
			r.svcs[i].P(p, 1)
			granted++
		})
	}
	r.k.Spawn("poster", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(200 * time.Millisecond)
			r.svcs[0].V(p, 1)
		}
	})
	r.k.Run()
	if granted != 2 {
		t.Fatalf("%d P's granted under loss, want 2", granted)
	}
}
