package netsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

func newTopoNet(t *testing.T, k *sim.Kernel, topo *Topology, hosts int) (*Network, []*Interface) {
	t.Helper()
	p := model.Default()
	n := NewWithTopology(k, &p, topo)
	ifcs := make([]*Interface, hosts)
	for i := range ifcs {
		ifc, err := n.Attach(HostID(i))
		if err != nil {
			t.Fatal(err)
		}
		ifcs[i] = ifc
	}
	return n, ifcs
}

// TestLinkProfileHonored pins the cross-segment arithmetic: source
// segment wire time at the segment's rate, then the link's own wire
// time and latency, then the destination segment's latency.
func TestLinkProfileHonored(t *testing.T) {
	topo := &Topology{
		Segments:    []SegmentSpec{{Name: "left"}, {Name: "right"}},
		Links:       []LinkSpec{{A: 0, B: 1, BandwidthBps: 100e6, Latency: 200 * time.Microsecond}},
		HostSegment: []int{0, 1},
	}
	k := sim.NewKernel(1)
	_, ifcs := newTopoNet(t, k, topo, 2)
	var at sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		ifcs[1].Recv(p)
		at = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 1000}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	// Segment wire time for 1000+64 bytes at the model's 10 Mb/s is
	// 851.2 µs; the link adds 85.12 µs wire time at 100 Mb/s plus its
	// 200 µs latency; the destination segment adds its 50 µs latency.
	want := sim.Time(851200 + 85120 + 200000 + 50000)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

// TestLinkCutThroughQueue pins the per-direction link reservation: two
// back-to-back frames over a slow link queue behind each other even
// though the source segment finished transmitting them long before.
func TestLinkCutThroughQueue(t *testing.T) {
	topo := &Topology{
		Segments:    []SegmentSpec{{}, {}},
		Links:       []LinkSpec{{A: 0, B: 1, BandwidthBps: 1e6}},
		HostSegment: []int{0, 1},
	}
	k := sim.NewKernel(1)
	_, ifcs := newTopoNet(t, k, topo, 2)
	var at [2]sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		for i := range at {
			ifcs[1].Recv(p)
			at[i] = p.Now()
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 1000}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Run()
	// Frame 1 leaves the segment at 851.2 µs, holds the 1 Mb/s link
	// for 8512 µs (until 9363.2 µs), then link + segment latency.
	// Frame 2 leaves the segment at 1702.4 µs but must queue behind
	// frame 1's link reservation, starting at 9363.2 µs.
	want := [2]sim.Time{
		sim.Time(851200 + 8512000 + 50000 + 50000),
		sim.Time(851200 + 8512000 + 8512000 + 50000 + 50000),
	}
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

// TestLinkCutPartitionsSegments scripts a LinkCut: cross-segment
// frames die at the severed link (counted as cut), same-segment
// traffic is untouched.
func TestLinkCutPartitionsSegments(t *testing.T) {
	topo := &Topology{
		Segments:    []SegmentSpec{{}, {}},
		Links:       []LinkSpec{{A: 0, B: 1}},
		HostSegment: []int{0, 0, 1},
	}
	k := sim.NewKernel(1)
	n, ifcs := newTopoNet(t, k, topo, 3)
	n.SetFaultPlan(&FaultPlan{LinkCuts: []LinkCut{{A: 0, B: 1}}}) // Until 0: cut forever
	gotLocal := false
	k.Spawn("rx-local", func(p *sim.Proc) {
		ifcs[1].Recv(p)
		gotLocal = true
	})
	k.Spawn("rx-remote", func(p *sim.Proc) {
		if _, ok := ifcs[2].RecvTimeout(p, sim.Duration(time.Second)); ok {
			t.Error("frame crossed a severed link")
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: 2, Size: 100}); err != nil {
			t.Error(err)
		}
		if err := ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 100}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if !gotLocal {
		t.Fatal("same-segment frame lost to a link cut")
	}
	st := n.Stats()
	if st.FramesCut != 1 {
		t.Fatalf("FramesCut = %d, want 1", st.FramesCut)
	}
	if st.CrossSegmentFrames != 0 {
		t.Fatalf("CrossSegmentFrames = %d, want 0 (the frame died at the cut)", st.CrossSegmentFrames)
	}
}

// broadcastFingerprint runs one broadcast on a 4×4 switched star and
// returns the delivery timeline (receiver, virtual time) in arrival
// order, plus the cross-segment frame count.
func broadcastFingerprint(t *testing.T) (string, int) {
	t.Helper()
	const hosts = 16
	k := sim.NewKernel(1)
	n, ifcs := newTopoNet(t, k, SwitchedStar(4, 4), hosts)
	var timeline string
	for h := 1; h < hosts; h++ {
		h := h
		k.Spawn("rx", func(p *sim.Proc) {
			ifcs[h].Recv(p)
			timeline += fmt.Sprintf("h%d@%d;", h, p.Now())
		})
	}
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: Broadcast, Size: 500}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	return timeline, n.Stats().CrossSegmentFrames
}

// TestBroadcastTreeDeterministic runs the same multicast expansion
// twice and demands identical delivery timelines, and pins the tree
// property: one broadcast crosses each of the star's 3 inter-segment
// links exactly once — O(segments), not O(receivers).
func TestBroadcastTreeDeterministic(t *testing.T) {
	tl1, cross1 := broadcastFingerprint(t)
	tl2, cross2 := broadcastFingerprint(t)
	if tl1 != tl2 {
		t.Fatalf("broadcast timelines differ between runs:\n  %s\n  %s", tl1, tl2)
	}
	if cross1 != 3 || cross2 != 3 {
		t.Fatalf("cross-segment frames = %d/%d, want 3 (one per tree edge)", cross1, cross2)
	}
	if tl1 == "" {
		t.Fatal("no deliveries recorded")
	}
}

// runBusTimeline drives a mixed unicast/broadcast pattern and returns
// the delivery timeline. The same pattern on a nil topology and on an
// explicit one-segment topology must match event for event — the
// degenerate case is the seed's bus, bit for bit.
func runBusTimeline(t *testing.T, topo *Topology) string {
	t.Helper()
	const hosts = 3
	k := sim.NewKernel(7)
	_, ifcs := newTopoNet(t, k, topo, hosts)
	var timeline string
	for h := 0; h < hosts; h++ {
		h := h
		k.Spawn("rx", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				f := ifcs[h].Recv(p)
				timeline += fmt.Sprintf("h%d<-h%d@%d;", h, f.From, p.Now())
			}
		})
	}
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: Broadcast, Size: 300}); err != nil {
			t.Error(err)
		}
		p.Sleep(100 * time.Microsecond)
		if err := ifcs[1].Send(p, Frame{From: 1, To: 2, Size: 800}); err != nil {
			t.Error(err)
		}
		if err := ifcs[2].Send(p, Frame{From: 2, To: 0, Size: 40}); err != nil {
			t.Error(err)
		}
		if err := ifcs[1].Send(p, Frame{From: 1, To: 0, Size: 40}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	return timeline
}

// TestOneSegmentMatchesBus pins the degenerate case: an explicit
// one-segment topology produces the exact delivery timeline of the
// default shared bus.
func TestOneSegmentMatchesBus(t *testing.T) {
	bus := runBusTimeline(t, nil)
	one := runBusTimeline(t, &Topology{Segments: []SegmentSpec{{Name: "only"}}})
	if bus == "" {
		t.Fatal("no deliveries recorded")
	}
	if one != bus {
		t.Fatalf("one-segment topology diverged from the bus:\n  bus: %s\n  one: %s", bus, one)
	}
}

// TestDeliverySteadyStateNoAllocs is the alloc guard for the delivery
// hot path: after a warm-up that grows every pool (event freelist,
// delivery records, queue buffers, waiter slices), broadcasting to
// 1023 receivers on the switched 1024-host topology must allocate
// nothing at all.
func TestDeliverySteadyStateNoAllocs(t *testing.T) {
	const hosts = 1024
	const warmup, measured = 16, 64
	params := model.Default()
	k := sim.NewKernel(1)
	n := NewWithTopology(k, &params, SwitchedStar(32, 32))
	ifcs := make([]*Interface, hosts)
	for h := 0; h < hosts; h++ {
		ifc, err := n.Attach(HostID(h))
		if err != nil {
			t.Fatal(err)
		}
		ifcs[h] = ifc
	}
	for h := 1; h < hosts; h++ {
		ifc := ifcs[h]
		k.Spawn("rx", func(p *sim.Proc) {
			for f := 0; f < warmup+measured; f++ {
				ifc.Recv(p)
			}
		})
	}
	var before, after runtime.MemStats
	k.Spawn("tx", func(p *sim.Proc) {
		send := func(count int) {
			for f := 0; f < count; f++ {
				if err := ifcs[0].Send(p, Frame{From: 0, To: Broadcast, Size: 64}); err != nil {
					panic(err)
				}
			}
		}
		send(warmup)
		// GC off during the window so collector bookkeeping cannot be
		// mistaken for delivery-path allocation.
		prev := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		send(measured)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(prev)
	})
	k.Run()
	k.Shutdown()
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Fatalf("steady-state delivery allocated: %d allocations over %d broadcast frames (%d deliveries)",
			d, measured, measured*(hosts-1))
	}
}

// BenchmarkSteadyStateBroadcast is the benchmark twin of the alloc
// guard: one long-lived 1024-host network, allocs/op and frame rate
// measured over the steady state only (setup and warm-up excluded).
func BenchmarkSteadyStateBroadcast(b *testing.B) {
	const hosts = 1024
	const warmup = 16
	params := model.Default()
	k := sim.NewKernel(1)
	n := NewWithTopology(k, &params, SwitchedStar(32, 32))
	ifcs := make([]*Interface, hosts)
	for h := 0; h < hosts; h++ {
		ifc, err := n.Attach(HostID(h))
		if err != nil {
			b.Fatal(err)
		}
		ifcs[h] = ifc
	}
	for h := 1; h < hosts; h++ {
		ifc := ifcs[h]
		k.Spawn("rx", func(p *sim.Proc) {
			for f := 0; f < warmup+b.N; f++ {
				ifc.Recv(p)
			}
		})
	}
	k.Spawn("tx", func(p *sim.Proc) {
		for f := 0; f < warmup; f++ {
			if err := ifcs[0].Send(p, Frame{From: 0, To: Broadcast, Size: 64}); err != nil {
				panic(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for f := 0; f < b.N; f++ {
			if err := ifcs[0].Send(p, Frame{From: 0, To: Broadcast, Size: 64}); err != nil {
				panic(err)
			}
		}
		b.StopTimer()
	})
	k.Run()
	k.Shutdown()
	b.ReportMetric(float64((hosts-1)*b.N)/b.Elapsed().Seconds(), "frames/s")
}
