package netsim

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

func newNet(t *testing.T, k *sim.Kernel, hosts int) (*Network, []*Interface) {
	t.Helper()
	p := model.Default()
	n := New(k, &p)
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

func TestUnicastDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	_, ifcs := newNet(t, k, 2)
	var got Frame
	var at sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		got = ifcs[1].Recv(p)
		at = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 1000, Payload: "pg"}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if got.Payload != "pg" {
		t.Fatalf("payload %v", got.Payload)
	}
	// Wire time for 1000+64 bytes at 10 Mb/s = 851.2 µs, + 50 µs latency.
	want := sim.Time(851200*time.Nanosecond + 50*time.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestMTUEnforced(t *testing.T) {
	k := sim.NewKernel(1)
	_, ifcs := newNet(t, k, 2)
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 8192}); err == nil {
			t.Error("oversized frame accepted; fragmentation not enforced")
		}
	})
	k.Run()
}

func TestWrongInterfaceRejected(t *testing.T) {
	k := sim.NewKernel(1)
	_, ifcs := newNet(t, k, 2)
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 1, To: 0, Size: 10}); err == nil {
			t.Error("spoofed From accepted")
		}
	})
	k.Run()
}

func TestDuplicateAttachRejected(t *testing.T) {
	k := sim.NewKernel(1)
	p := model.Default()
	n := New(k, &p)
	if _, err := n.Attach(3); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(3); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestSharedMediumSerializesTransmissions(t *testing.T) {
	k := sim.NewKernel(1)
	_, ifcs := newNet(t, k, 3)
	var arrivals []sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			ifcs[2].Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("tx", func(p *sim.Proc) {
			if err := ifcs[i].Send(p, Frame{From: HostID(i), To: 2, Size: 1400}); err != nil {
				t.Error(err)
			}
		})
	}
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d frames, want 2", len(arrivals))
	}
	mp := model.Params{BandwidthBps: 10_000_000, HeaderBytes: 64}
	tx := sim.Time(mp.WireTime(1400))
	gap := arrivals[1] - arrivals[0]
	if gap != tx {
		t.Fatalf("arrival gap %v, want one wire time %v (serialized medium)", sim.Duration(gap), sim.Duration(tx))
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	k := sim.NewKernel(1)
	_, ifcs := newNet(t, k, 4)
	got := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		k.Spawn("rx", func(p *sim.Proc) {
			ifcs[i].Recv(p)
			got[i]++
		})
	}
	k.Spawn("tx", func(p *sim.Proc) {
		if err := ifcs[0].Send(p, Frame{From: 0, To: Broadcast, Size: 64}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	for i := 1; i < 4; i++ {
		if got[i] != 1 {
			t.Fatalf("host %d received %d broadcasts, want 1", i, got[i])
		}
	}
	if ifcs[0].Pending() != 0 {
		t.Fatal("sender received its own broadcast")
	}
}

func TestDropInjection(t *testing.T) {
	k := sim.NewKernel(7)
	n, ifcs := newNet(t, k, 2)
	n.SetFaultPlan(&FaultPlan{Loss: []Burst{{Rate: 1}}}) // lose everything, all run long
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 100}); err != nil {
				t.Error(err)
			}
		}
	})
	k.Run()
	if n.Stats().FramesDropped != 5 {
		t.Fatalf("dropped %d, want 5", n.Stats().FramesDropped)
	}
	if ifcs[1].Pending() != 0 {
		t.Fatal("dropped frames were delivered")
	}
}

func TestRecvTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	_, ifcs := newNet(t, k, 2)
	var ok bool
	k.Spawn("rx", func(p *sim.Proc) {
		_, ok = ifcs[0].RecvTimeout(p, 10*time.Millisecond)
	})
	k.Run()
	if ok {
		t.Fatal("RecvTimeout returned a frame on a silent network")
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := sim.NewKernel(1)
	n, ifcs := newNet(t, k, 2)
	k.Spawn("rx", func(p *sim.Proc) {
		ifcs[1].Recv(p)
		ifcs[1].Recv(p)
	})
	k.Spawn("tx", func(p *sim.Proc) {
		_ = ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 700})
		_ = ifcs[0].Send(p, Frame{From: 0, To: 1, Size: 300})
	})
	k.Run()
	s := n.Stats()
	if s.FramesSent != 2 || s.BytesSent != 1000 {
		t.Fatalf("stats %+v, want 2 frames / 1000 bytes", s)
	}
	if s.BusyTime <= 0 {
		t.Fatal("busy time not accounted")
	}
}
