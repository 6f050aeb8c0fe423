package remoteop

import (
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

func TestChecksumDetectsEveryCorruptedFragment(t *testing.T) {
	// Corrupt every fragment for the first 20 ms. The receiver's CRC-32C
	// checksum must drop each damaged fragment before reassembly; the
	// sender's retransmissions after the window closes complete the
	// call with the payload intact. Detection rate must be 100%: every
	// corrupted frame is a checksum drop, none becomes page content.
	r := newRig(t, arch.Sun, arch.Firefly)
	r.net.SetFaultPlan(&netsim.FaultPlan{Corrupt: []netsim.Burst{{
		Window: netsim.Window{Until: sim.Time(20 * time.Millisecond)},
		Rate:   1.0,
	}}})
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i * 13)
	}
	var received []byte
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		received = append([]byte(nil), req.Data...)
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
	})
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		if _, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: page}); err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if len(received) != len(page) {
		t.Fatalf("received %d bytes, want %d", len(received), len(page))
	}
	for i := range received {
		if received[i] != page[i] {
			t.Fatalf("byte %d corrupted despite checksums (got %#x want %#x)", i, received[i], page[i])
		}
	}
	corrupted := r.net.Stats().FramesCorrupted
	drops := r.eps[0].Stats().ChecksumDrops + r.eps[1].Stats().ChecksumDrops
	if corrupted == 0 {
		t.Fatal("fault plan corrupted nothing; the test exercised no checksums")
	}
	if drops != corrupted {
		t.Fatalf("%d frames corrupted but %d checksum drops — %d damaged fragments slipped through",
			corrupted, drops, corrupted-drops)
	}
}

func TestSenderCrashMidTransferDiscardsPartialReassembly(t *testing.T) {
	// Host 0 starts a fragmented 8 KB transfer and dies after a few
	// fragments are delivered. The receiver is left with a partial
	// reassembly that can never complete; DropPartials (what the failure
	// detector's death callback invokes) must discard it and return the
	// pooled buffer — the leak guard is PartialReassemblies reaching 0.
	r := newRig(t, arch.Sun, arch.Sun)
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		t.Error("handler ran for a transfer that was never completed")
	})
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		// The sender's process unwinds via Crash's exit-at-next-send;
		// the call never returns.
		_, _ = r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: make([]byte, 8192)})
		t.Error("call returned from a crashed host")
	})
	r.k.Spawn("crash", func(p *sim.Proc) {
		// ~1.17 ms wire time per 1400-byte fragment: by 3 ms two
		// fragments are across and the third is at most in flight.
		p.Sleep(3 * time.Millisecond)
		r.net.SetHostDown(0, true)
		r.eps[0].Crash()
	})
	r.k.RunFor(500 * time.Millisecond)

	if got := r.eps[1].PartialReassemblies(); got != 1 {
		t.Fatalf("receiver holds %d partial reassemblies, want 1 before cleanup", got)
	}
	r.eps[1].DropPartials(0)
	if got := r.eps[1].PartialReassemblies(); got != 0 {
		t.Fatalf("%d partial reassemblies leaked after DropPartials", got)
	}
	r.eps[1].DropPartials(0) // idempotent
	if !r.eps[0].Crashed() {
		t.Fatal("Crashed() false after Crash()")
	}
}

func TestReceiverCrashDropsOwnPartials(t *testing.T) {
	// Crash on the receiving endpoint itself must clear its reassembly
	// table (the corpse's memory is gone, pooled buffers returned).
	r := newRig(t, arch.Sun, arch.Sun)
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		_, _ = r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: make([]byte, 8192)})
	})
	r.k.Spawn("crash", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond)
		r.net.SetHostDown(1, true)
		r.eps[1].Crash()
		if got := r.eps[1].PartialReassemblies(); got != 0 {
			t.Errorf("crashed endpoint still holds %d partial reassemblies", got)
		}
	})
	r.k.RunFor(100 * time.Millisecond)
}

func TestCallFailsFastOnDeadPeer(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	r.eps[0].SetPeerCheck(func(h HostID) bool { return h == 1 })
	r.startAll()
	var err error
	var elapsed sim.Duration
	r.k.Spawn("caller", func(p *sim.Proc) {
		t0 := p.Now()
		_, err = r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho})
		elapsed = p.Now().Sub(t0)
	})
	r.k.Run()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	if elapsed != 0 {
		t.Fatalf("fail-fast call burned %v of virtual time", elapsed)
	}
}

func TestCallAllFailsFastOnDeadPeer(t *testing.T) {
	// CallAll is the quorum round with need = all: a destination the
	// detector has declared dead makes the round impossible, and it must
	// say so at once instead of burning MaxRetries timeouts on a corpse.
	r := newRig(t, arch.Sun, arch.Sun, arch.Sun)
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
	})
	r.eps[0].SetPeerCheck(func(h HostID) bool { return h == 2 })
	r.eps[0].Start()
	r.eps[1].Start() // host 2 never starts: dead and silent
	var err error
	var elapsed sim.Duration
	r.k.Spawn("caller", func(p *sim.Proc) {
		t0 := p.Now()
		_, err = r.eps[0].CallAll(p, []HostID{1, 2}, func(HostID) *proto.Message {
			return &proto.Message{Kind: proto.KindEcho}
		})
		elapsed = p.Now().Sub(t0)
	})
	r.k.Run()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	if elapsed != 0 {
		t.Fatalf("fail-fast round burned %v of virtual time", elapsed)
	}
}

func TestCallBlockingAbortsWhenPeerDeclaredDead(t *testing.T) {
	// A patient call is retrying at a silent host when the detector
	// declares it dead: the next retry must abort with ErrPeerDead
	// instead of retrying forever.
	r := newRig(t, arch.Sun, arch.Sun)
	dead := false
	r.eps[0].SetPeerCheck(func(h HostID) bool { return h == 1 && dead })
	r.eps[0].Start() // host 1 never starts: silent forever
	var err error
	r.k.Spawn("caller", func(p *sim.Proc) {
		_, err = r.eps[0].CallBlocking(p, 1, &proto.Message{Kind: proto.KindSemOp, Args: []uint32{1, 1}})
	})
	r.k.Spawn("declare", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		dead = true
	})
	r.k.RunFor(time.Minute)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
}

func TestTimeoutHookEscalatesSilentHost(t *testing.T) {
	// Every exhausted request timeout must report the destination to the
	// failure detector's escalation hook.
	r := newRig(t, arch.Sun, arch.Sun)
	escalations := map[HostID]int{}
	r.eps[0].SetTimeoutHook(func(dst HostID) { escalations[dst]++ })
	r.eps[0].Start() // host 1 never starts: silent forever
	r.k.Spawn("caller", func(p *sim.Proc) {
		if _, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho}); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	r.k.Run()
	if escalations[1] < int(r.par.MaxRetries) {
		t.Fatalf("host 1 escalated %d times, want ≥ %d (once per burned timeout)",
			escalations[1], r.par.MaxRetries)
	}
	if len(escalations) != 1 {
		t.Fatalf("unexpected escalations: %v", escalations)
	}
}

func TestDuplicatedFragmentsAreAbsorbed(t *testing.T) {
	// With the duplicate fault active, every fragment arrives twice; the
	// reassembly and dedup layers must deliver the request exactly once
	// with intact content.
	r := newRig(t, arch.Sun, arch.Firefly)
	r.net.SetFaultPlan(&netsim.FaultPlan{Duplicate: []netsim.Burst{{
		Window: netsim.Window{From: 0},
		Rate:   1.0,
	}}})
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	executions := 0
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		executions++
		for i := range req.Data {
			if req.Data[i] != byte(i) {
				t.Errorf("byte %d corrupted by duplication", i)
				break
			}
		}
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
	})
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		if _, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: page}); err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if executions != 1 {
		t.Fatalf("handler executed %d times under duplication, want 1", executions)
	}
	if r.net.Stats().FramesDuplicated == 0 {
		t.Fatal("fault plan duplicated nothing")
	}
}
