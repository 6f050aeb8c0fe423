package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// sendAt spawns a sender that transmits one small frame at each of the
// given virtual times.
func sendAt(t *testing.T, k *sim.Kernel, ifc *Interface, to HostID, times ...sim.Duration) {
	t.Helper()
	k.Spawn("tx", func(p *sim.Proc) {
		prev := sim.Duration(0)
		for _, at := range times {
			p.Sleep(at - prev)
			prev = at
			if err := ifc.Send(p, Frame{From: ifc.ID(), To: to, Size: 64, Payload: "x"}); err != nil {
				t.Error(err)
			}
		}
	})
}

// drain counts frames arriving at an interface until the run ends.
func drain(k *sim.Kernel, ifc *Interface, n *int) {
	k.Spawn("rx", func(p *sim.Proc) {
		for {
			ifc.Recv(p)
			*n++
		}
	})
}

func TestPartitionCutAndHealSymmetry(t *testing.T) {
	// While the partition window is open, frames crossing the cut are
	// lost in BOTH directions; after it closes, both directions work
	// again. The cut is checked at delivery scheduling, so the fault is
	// symmetric by construction — this test pins that down.
	k := sim.NewKernel(3)
	n, ifcs := newNet(t, k, 2)
	cut := Window{From: sim.Time(10 * time.Millisecond), Until: sim.Time(20 * time.Millisecond)}
	n.SetFaultPlan(&FaultPlan{Partitions: []Partition{{Window: cut, Group: []HostID{1}}}})

	var got0, got1 int
	drain(k, ifcs[0], &got0)
	drain(k, ifcs[1], &got1)
	// One frame each way before, during, and after the window.
	for _, dir := range []struct {
		from *Interface
		to   HostID
	}{{ifcs[0], 1}, {ifcs[1], 0}} {
		sendAt(t, k, dir.from, dir.to,
			5*time.Millisecond, 15*time.Millisecond, 25*time.Millisecond)
	}
	k.RunFor(100 * time.Millisecond)

	if got0 != 2 || got1 != 2 {
		t.Fatalf("host0 got %d, host1 got %d frames; want 2 each (cut must be symmetric and heal)", got0, got1)
	}
	if n.Stats().FramesCut != 2 {
		t.Fatalf("FramesCut = %d, want 2", n.Stats().FramesCut)
	}
}

func TestPartitionAllowsTrafficWithinSides(t *testing.T) {
	k := sim.NewKernel(3)
	n, ifcs := newNet(t, k, 4)
	n.SetFaultPlan(&FaultPlan{Partitions: []Partition{{
		Window: Window{From: 0}, // open forever
		Group:  []HostID{2, 3},
	}}})
	var in01, in23, across int
	drain(k, ifcs[1], &in01)
	drain(k, ifcs[3], &in23)
	drain(k, ifcs[0], &across)
	sendAt(t, k, ifcs[0], 1, 1*time.Millisecond) // same side
	sendAt(t, k, ifcs[2], 3, 1*time.Millisecond) // same side
	sendAt(t, k, ifcs[2], 0, 2*time.Millisecond) // crosses the cut
	k.RunFor(50 * time.Millisecond)
	if in01 != 1 || in23 != 1 {
		t.Fatalf("same-side traffic blocked: got %d and %d, want 1 and 1", in01, in23)
	}
	if across != 0 {
		t.Fatal("frame crossed an open partition")
	}
}

func TestPartitionSplitsBroadcast(t *testing.T) {
	// A broadcast from inside a partitioned group reaches only that
	// group: each receiver's delivery is cut independently.
	k := sim.NewKernel(3)
	_, ifcs := newNet(t, k, 3)
	ifcs[0].Network().SetFaultPlan(&FaultPlan{Partitions: []Partition{{
		Window: Window{From: 0},
		Group:  []HostID{0, 1},
	}}})
	var got1, got2 int
	drain(k, ifcs[1], &got1)
	drain(k, ifcs[2], &got2)
	sendAt(t, k, ifcs[0], Broadcast, 1*time.Millisecond)
	k.RunFor(50 * time.Millisecond)
	if got1 != 1 {
		t.Fatalf("same-side broadcast receiver got %d frames, want 1", got1)
	}
	if got2 != 0 {
		t.Fatal("broadcast crossed an open partition")
	}
}

func TestBurstLossWindow(t *testing.T) {
	k := sim.NewKernel(5)
	n, ifcs := newNet(t, k, 2)
	n.SetFaultPlan(&FaultPlan{Loss: []Burst{{
		Window: Window{From: sim.Time(10 * time.Millisecond), Until: sim.Time(20 * time.Millisecond)},
		Rate:   1.0,
	}}})
	var got int
	drain(k, ifcs[1], &got)
	sendAt(t, k, ifcs[0], 1, 5*time.Millisecond, 15*time.Millisecond, 25*time.Millisecond)
	k.RunFor(100 * time.Millisecond)
	if got != 2 {
		t.Fatalf("got %d frames, want 2 (only the in-window frame lost)", got)
	}
	if d := n.Stats().FramesDropped; d != 1 {
		t.Fatalf("dropped %d, want 1", d)
	}
}

func TestDuplicateWindowDeliversTwice(t *testing.T) {
	k := sim.NewKernel(5)
	n, ifcs := newNet(t, k, 2)
	n.SetPayloadHooks(
		func(payload any) any { return payload }, // strings are value-safe
		func(payload any, _ *rand.Rand) any { return payload },
	)
	n.SetFaultPlan(&FaultPlan{Duplicate: []Burst{{Window: Window{From: 0}, Rate: 1.0}}})
	var got int
	drain(k, ifcs[1], &got)
	sendAt(t, k, ifcs[0], 1, 1*time.Millisecond)
	k.RunFor(50 * time.Millisecond)
	if got != 2 {
		t.Fatalf("got %d deliveries of a duplicated frame, want 2", got)
	}
	if n.Stats().FramesDuplicated != 1 {
		t.Fatalf("FramesDuplicated = %d, want 1", n.Stats().FramesDuplicated)
	}
}

func TestDownHostSendsAndReceivesNothing(t *testing.T) {
	k := sim.NewKernel(5)
	n, ifcs := newNet(t, k, 2)
	var got0, got1 int
	drain(k, ifcs[0], &got0)
	drain(k, ifcs[1], &got1)
	n.SetHostDown(1, true)
	sendAt(t, k, ifcs[0], 1, 1*time.Millisecond) // into the void
	sendAt(t, k, ifcs[1], 0, 2*time.Millisecond) // NIC down: never sent
	k.RunFor(50 * time.Millisecond)
	if got1 != 0 {
		t.Fatal("down host received a frame")
	}
	if got0 != 0 {
		t.Fatal("down host transmitted a frame")
	}
	if n.Stats().FramesToDead != 1 {
		t.Fatalf("FramesToDead = %d, want 1", n.Stats().FramesToDead)
	}
	if !n.HostDown(1) || n.HostDown(0) {
		t.Fatal("HostDown bookkeeping wrong")
	}
}

func TestCrashMidFlightFrameVanishes(t *testing.T) {
	// A frame already on the wire when its destination dies must vanish
	// at delivery time (the NIC is off), not arrive posthumously.
	k := sim.NewKernel(5)
	n, ifcs := newNet(t, k, 2)
	var got int
	drain(k, ifcs[1], &got)
	sendAt(t, k, ifcs[0], 1, 0)
	// Frame takes ~102 µs wire time + 50 µs latency; crash in between.
	k.Spawn("crash", func(p *sim.Proc) {
		p.Sleep(110 * time.Microsecond)
		n.SetHostDown(1, true)
	})
	k.RunFor(10 * time.Millisecond)
	if got != 0 {
		t.Fatal("frame was delivered to a host that died while it was in flight")
	}
	if n.Stats().FramesToDead != 1 {
		t.Fatalf("FramesToDead = %d, want 1", n.Stats().FramesToDead)
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	// The same seed and plan must lose exactly the same frames.
	run := func() (sent, dropped, got int) {
		k := sim.NewKernel(42)
		n, ifcs := newNet(t, k, 2)
		n.SetFaultPlan(&FaultPlan{Loss: []Burst{{Window: Window{From: 0}, Rate: 0.5}}})
		drain(k, ifcs[1], &got)
		times := make([]sim.Duration, 40)
		for i := range times {
			times[i] = sim.Duration(i+1) * time.Millisecond
		}
		sendAt(t, k, ifcs[0], 1, times...)
		k.RunFor(time.Second)
		s := n.Stats()
		return s.FramesSent, s.FramesDropped, got
	}
	s1, d1, g1 := run()
	s2, d2, g2 := run()
	if s1 != s2 || d1 != d2 || g1 != g2 {
		t.Fatalf("fault plan not deterministic: (%d,%d,%d) vs (%d,%d,%d)", s1, d1, g1, s2, d2, g2)
	}
	if d1 == 0 || g1 == 0 {
		t.Fatalf("degenerate run: dropped %d, delivered %d", d1, g1)
	}
}

func TestEmptyPlanReported(t *testing.T) {
	var nilPlan *FaultPlan
	if !nilPlan.Empty() {
		t.Fatal("nil plan not Empty")
	}
	if !(&FaultPlan{}).Empty() {
		t.Fatal("zero plan not Empty")
	}
	if (&FaultPlan{Crashes: []CrashEvent{{Host: 1}}}).Empty() {
		t.Fatal("plan with a crash reported Empty")
	}
}
