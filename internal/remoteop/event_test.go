package remoteop

// An event handler must serve a request exactly as a handler process
// would have: the same events under the same labels, the same reply
// cache entry, the same silence from a crashed host.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/proto"
	"repro/internal/sim"
)

func TestEventHandlerKeepsTheLabelsOfAHandlerProcess(t *testing.T) {
	got, r := transcript(t, func(k *sim.Kernel) *rig { return forwardedPageFetch(t, k, true) }, nil)
	if got != strings.TrimSpace(forwardedPageFetchTranscript) {
		t.Errorf("an event handler's 8 KB reply dispatched\n%s", got)
	}
	// The caller and host 0's forwarding handler are processes; the reply
	// is not.
	if n := r.k.Counts().Spawns; n != 2 {
		t.Errorf("%d processes spawned, want 2", n)
	}
}

// chargedEchoes has three hosts call host 3 at the same instant. Its
// handler holds a one-server CPU for two milliseconds per request, so
// the requests queue for it, then answers with a three-fragment page.
func chargedEchoes(t *testing.T, k *sim.Kernel, event bool) *rig {
	r := newRigOn(t, k, arch.Sun, arch.Firefly, arch.Sun, arch.Firefly)
	cpu := sim.NewResource(k, 1)
	const d = 2 * time.Millisecond
	answer := func(req *proto.Message) *proto.Message {
		return &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{req.From}, Data: make([]byte, 3*r.par.MTUPayload-100)}
	}
	if event {
		r.eps[3].HandleEvent(proto.KindEcho, EventHandler{
			Charge: func(*proto.Message) (*sim.Resource, sim.Duration, bool) { return cpu, d, true },
			Reply:  answer,
		})
	} else {
		r.eps[3].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
			cpu.Use(p, d)
			r.eps[3].Reply(p, req, answer(req))
		})
	}
	r.startAll()
	for i := 0; i < 3; i++ {
		r.k.Spawn(fmt.Sprint("caller-", i), func(p *sim.Proc) {
			resp, err := r.eps[i].Call(p, 3, &proto.Message{Kind: proto.KindEcho})
			if err != nil || resp.Arg(0) != uint32(i) {
				t.Errorf("caller %d: %v, error %v", i, resp, err)
			}
		})
	}
	return r
}

// TestEventHandlerChargeQueuesAsAProcessWould compares the two forms
// event by event, host 3's counters included: a run stopped between
// any two events reads the same Stats whichever form served it.
func TestEventHandlerChargeQueuesAsAProcessWould(t *testing.T) {
	stats := func(r *rig) string { return fmt.Sprintf("%+v", r.eps[3].Stats()) }
	procs, _ := transcript(t, func(k *sim.Kernel) *rig { return chargedEchoes(t, k, false) }, stats)
	events, r := transcript(t, func(k *sim.Kernel) *rig { return chargedEchoes(t, k, true) }, stats)
	if events != procs {
		t.Errorf("event handlers dispatched\n%s\nhandler processes\n%s", events, procs)
	}
	if !strings.Contains(procs, "ms wake:handler-3-echo") {
		t.Fatalf("no request waited for the CPU:\n%s", procs)
	}
	if s := r.eps[3].Stats(); s.Sent != 3 || s.FragmentsSent != 9 {
		t.Errorf("host 3 sent %d messages in %d fragments, want 3 in 9", s.Sent, s.FragmentsSent)
	}
}

func TestRegistrationReplacesEitherForm(t *testing.T) {
	proc := func(r *rig) {
		r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
			r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{1}})
		})
	}
	event := func(r *rig) {
		r.eps[1].HandleEvent(proto.KindEcho, EventHandler{Reply: func(*proto.Message) *proto.Message {
			return &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{2}}
		}})
	}
	for _, c := range []struct {
		name          string
		first, second func(*rig)
		want          uint32
		spawns        uint64 // the caller, and a handler process if one serves
	}{
		{"event replaces process", proc, event, 2, 1},
		{"process replaces event", event, proc, 1, 2},
	} {
		r := newRig(t, arch.Sun, arch.Sun)
		c.first(r)
		c.second(r)
		r.startAll()
		var got uint32
		r.k.Spawn("caller", func(p *sim.Proc) {
			resp, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho})
			if err != nil {
				t.Error(err)
				return
			}
			got = resp.Arg(0)
		})
		r.k.Run()
		if got != c.want || r.k.Counts().Spawns != c.spawns {
			t.Errorf("%s: answered %d with %d processes spawned, want %d with %d", c.name, got, r.k.Counts().Spawns, c.want, c.spawns)
		}
	}
}

// TestEventReplyCacheResendIsByteIdentical is TestReplyCacheResendIsByteIdentical
// for an event handler: its reply is cached with the fingerprint of its
// first send, so a duplicate is answered with exactly those bytes, and
// a body changed since is caught at the resend.
func TestEventReplyCacheResendIsByteIdentical(t *testing.T) {
	for _, scribble := range []bool{false, true} {
		t.Run(fmt.Sprintf("scribble=%v", scribble), func(t *testing.T) {
			r := newRig(t, arch.Sun, arch.Sun)
			body := make([]byte, 3*r.par.MTUPayload)
			for i := range body {
				body[i] = byte(i * 7)
			}
			runs := 0
			r.eps[1].HandleEvent(proto.KindEcho, EventHandler{Reply: func(*proto.Message) *proto.Message {
				runs++
				return &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{5}, Data: body}
			}})
			r.startAll()
			var first, again *proto.Message
			r.k.Spawn("caller", func(p *sim.Proc) {
				req := &proto.Message{Kind: proto.KindEcho}
				resp, err := r.eps[0].Call(p, 1, req)
				if err != nil {
					t.Error(err)
					return
				}
				first = resp
				if scribble {
					body[len(body)/2] ^= 0xff
				}
				// Forge a duplicate — Forward keeps ReqID and From — with a
				// pending call re-opened to catch the resent reply.
				pc := &pendingCall{}
				r.eps[0].pending[req.ReqID] = pc
				pc.w = p.PrepareWait()
				pc.armed = true
				r.eps[0].Forward(p, 1, req)
				p.ParkTimeout(r.par.RequestTimeout)
				again = pc.reply
			})
			var got any
			func() {
				defer func() { got = recover() }()
				r.k.Run()
			}()
			if scribble {
				want := fmt.Sprintf("remoteop: cached %v reply to host 0 changed after it was sent", proto.KindEchoReply)
				if msg, _ := got.(string); !strings.Contains(msg, want) {
					t.Fatalf("resend of a changed reply: panic %v, want one containing %q", got, want)
				}
				return
			}
			if got != nil {
				t.Fatalf("resend of an untouched reply panicked: %v", got)
			}
			if r.eps[1].Stats().Duplicates != 1 || again == nil || runs != 1 {
				t.Fatalf("forged duplicate not answered from the cache (%d duplicates, handler ran %d times)", r.eps[1].Stats().Duplicates, runs)
			}
			if !bytes.Equal(again.Data, first.Data) || again.Arg(0) != first.Arg(0) || again.ReqID != first.ReqID {
				t.Fatal("the resent reply differs from the first")
			}
		})
	}
}

// TestEventHandlerOnCrashedHostSendsNothing is TestCrashDuringBulkReceive
// for an event handler: the message is past the NIC and is served, but
// its reply stops where a handler process would have unwound.
func TestEventHandlerOnCrashedHostSendsNothing(t *testing.T) {
	servedAt := func(crashAt sim.Duration) (served sim.Time, r *rig, err error) {
		r = newRig(t, arch.Sun, arch.Firefly)
		r.eps[1].HandleEvent(proto.KindEcho, EventHandler{Reply: func(*proto.Message) *proto.Message {
			served = r.k.Now()
			return &proto.Message{Kind: proto.KindEchoReply}
		}})
		r.startAll()
		r.k.Spawn("caller", func(p *sim.Proc) {
			_, err = r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: make([]byte, 8192)})
		})
		if crashAt > 0 {
			r.k.After(crashAt, func() {
				r.net.SetHostDown(1, true)
				r.eps[1].Crash()
			})
		}
		r.k.Run()
		return served, r, err
	}
	served, _, err := servedAt(0)
	if err != nil || served == 0 {
		t.Fatalf("undisturbed call: served at %v, error %v", served, err)
	}
	again, r, err := servedAt(sim.Duration(served) - time.Microsecond)
	if again != served {
		t.Errorf("request on the crashed host served at %v, want %v as without the crash", again, served)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("caller got %v, want ErrTimeout", err)
	}
	if s := r.eps[1].Stats(); s.Received != 1 || s.Sent != 0 || s.FragmentsSent != 0 {
		t.Errorf("crashed endpoint received %d messages and sent %d (%d fragments), want 1 and 0", s.Received, s.Sent, s.FragmentsSent)
	}
}
