package dsm

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// TestCrashedHostAnswersNothing crashes host 2 while a page-meta and an
// invalidate multicast from host 0 sit in its receive queue, behind an
// 8 KB message whose receive cost its server is still charging. After
// that cost the server hands both requests to their handlers, as it
// does on a live host; each handler applies its update and is dropped
// where a handler process used to unwind, at its reply's send. So no
// ack leaves host 2, and both multicasts chase it until they time out,
// escalating it once per retry round. The escalation instants and the
// end of the calls are the values this scenario gave when both kinds
// were served by handler processes.
func TestCrashedHostAnswersNothing(t *testing.T) {
	const h = 2
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Firefly})
	ep := func(i int) *remoteop.Endpoint { return r.mods[i].ep }
	var escalations []string
	ep(0).SetTimeoutHook(func(dst HostID) {
		escalations = append(escalations, fmt.Sprintf("%v h%d", r.k.Now(), dst))
	})
	var page PageNo
	r.run("alloc", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Fatal(err)
		}
		page = r.mods[0].PageOf(addr)
	})
	r.k.Spawn("bulk", func(p *sim.Proc) {
		ep(1).SendOneWay(p, h, &proto.Message{Kind: proto.KindPageDeliver, Args: []uint32{flagData, 0}, Data: make([]byte, 8192)})
	})
	var ends []string
	multicast := func(name string, m *proto.Message) {
		r.k.Spawn(name, func(p *sim.Proc) {
			p.Sleep(14 * time.Millisecond) // the bulk message is on the wire until then
			_, err := ep(0).CallMulticast(p, []HostID{1, h}, m)
			if !errors.Is(err, remoteop.ErrTimeout) {
				t.Errorf("%s: %v, want a timeout", name, err)
			}
			ends = append(ends, fmt.Sprintf("%v %s", p.Now(), name))
		})
	}
	multicast("page-meta", &proto.Message{Kind: proto.KindPageMeta, Page: uint32(page), Args: []uint32{uint32(conv.Int32), 8}})
	multicast("invalidate", &proto.Message{Kind: proto.KindInvalidate, Page: uint32(page), Args: []uint32{1, h}})
	var atCrash remoteop.Stats
	r.k.After(20*time.Millisecond, func() {
		atCrash = ep(h).Stats()
		r.net.SetHostDown(h, true)
		ep(h).Crash()
	})
	r.k.Run()

	// Before the crash host 2 had served the allocation's page-meta and
	// taken the bulk message's six fragments off the wire.
	if atCrash.Received != 1 || atCrash.FragmentsReceived != 7 {
		t.Fatalf("at the crash host %d had taken %d fragments and %d messages, want 7 and 1", h, atCrash.FragmentsReceived, atCrash.Received)
	}
	after := ep(h).Stats()
	if after.Received != 4 || after.FragmentsReceived != 9 {
		t.Errorf("host %d took %d fragments and %d messages in all, want 9 and 4: the queued requests were not served", h, after.FragmentsReceived, after.Received)
	}
	if after.Sent != atCrash.Sent || after.FragmentsSent != atCrash.FragmentsSent {
		t.Errorf("crashed host %d sent %d messages in %d fragments", h, after.Sent-atCrash.Sent, after.FragmentsSent-atCrash.FragmentsSent)
	}
	// The dead host applied the page-meta, as its handler process did
	// before unwinding at the ack; nothing reads a corpse's tables.
	if used := r.mods[h].meta[page].used; used != 8 {
		t.Errorf("host %d's page-meta handler never ran (used %d)", h, used)
	}
	// Host 1 acks both, the page-meta on top of the allocation's.
	if n := ep(1).MessageCounts(); n[proto.KindPageMetaAck] != 2 || n[proto.KindInvalidateAck] != 1 {
		t.Errorf("host 1 sent %v", n)
	}
	if r.mods[1].meta[page].used != 8 || r.mods[1].Access(page) != NoAccess {
		t.Errorf("host 1 did not apply the requests it acked")
	}
	if want := []string{"6.0150304s page-meta", "6.015104s invalidate"}; !slices.Equal(ends, want) {
		t.Errorf("multicasts ended %q, want %q", ends, want)
	}
	if n := len(escalations); n != 22 || escalations[0] != "1.0142208s h2" || escalations[n-1] != "6.0150304s h2" {
		t.Errorf("host 0 escalated %q, want 22 times from 1.0142208s to 6.0150304s", escalations)
	}
}

// TestRequesterCallsReportHostDown pins one failure contract for the
// central and update requesters: under failure detection an E-accessor
// whose server (central) or manager (update) crashed returns
// ErrHostDown; without detection the same access still panics.
func TestRequesterCallsReportHostDown(t *testing.T) {
	cases := []struct {
		policy Policy
		op     string
		access func(m *Module, p *sim.Proc, addr Addr) error
	}{
		{PolicyCentral, "ReadInt32E", func(m *Module, p *sim.Proc, addr Addr) error {
			_, err := m.ReadInt32E(p, addr)
			return err
		}},
		{PolicyCentral, "WriteInt32E", func(m *Module, p *sim.Proc, addr Addr) error { return m.WriteInt32E(p, addr, 7) }},
		{PolicyCentral, "AtomicSwapInt32E", func(m *Module, p *sim.Proc, addr Addr) error {
			_, err := m.AtomicSwapInt32E(p, addr, 7)
			return err
		}},
		{PolicyUpdate, "WriteInt32E", func(m *Module, p *sim.Proc, addr Addr) error { return m.WriteInt32E(p, addr, 7) }},
	}
	const victim = 1
	for _, c := range cases {
		for _, detect := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/%s/detect=%v", c.policy, c.op, detect), func(t *testing.T) {
				r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun}, withPolicy(c.policy))
				if detect {
					for _, m := range r.mods {
						d := NewDetector(r.k, m.ep, r.cfg.Params, len(r.mods))
						m.AttachLiveness(d)
						d.Start()
					}
				}
				done := false
				r.k.Spawn("main", func(p *sim.Proc) {
					defer func() { done = true }()
					// Two full pages: the second is served (central) or
					// managed (update) by the victim.
					var addr Addr
					for range 2 {
						var err error
						if addr, err = r.mods[0].Alloc(p, conv.Int32, 2048); err != nil {
							t.Error(err)
							return
						}
					}
					if got := r.mods[2].manager(r.mods[2].PageOf(addr)); got != victim {
						t.Errorf("second page managed by %d, want %d", got, victim)
						return
					}
					// The update writer holds a replica, so its write goes
					// straight to the sequencing call; the fault's
					// confirmation reaches the manager before the crash.
					if _, err := r.mods[2].ReadInt32E(p, addr); err != nil {
						t.Error(err)
						return
					}
					p.Sleep(time.Second)
					r.net.SetHostDown(victim, true)
					r.mods[victim].ep.Crash()
					if !detect {
						defer func() {
							if recover() == nil {
								t.Errorf("%s without failure detection did not panic", c.op)
							}
						}()
					} else {
						p.Sleep(4 * time.Second) // the detector declares the victim dead
					}
					if err := c.access(r.mods[2], p, addr); !errors.Is(err, ErrHostDown) {
						t.Errorf("%s with the victim down: err = %v, want ErrHostDown", c.op, err)
					}
				})
				r.k.RunUntil(func() bool { return done })
				r.k.Shutdown()
				if !done {
					t.Fatal("main never finished")
				}
			})
		}
	}
}
