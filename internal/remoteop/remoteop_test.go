package remoteop

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// rig builds a kernel, network, and endpoints of the given kinds.
type rig struct {
	k   *sim.Kernel
	net *netsim.Network
	eps []*Endpoint
	par *model.Params
}

func newRig(t *testing.T, kinds ...arch.Kind) *rig {
	t.Helper()
	return newRigOn(t, sim.NewKernel(1), kinds...)
}

func newRigOn(t *testing.T, k *sim.Kernel, kinds ...arch.Kind) *rig {
	t.Helper()
	par := model.Default()
	n := netsim.New(k, &par)
	r := &rig{k: k, net: n, par: &par}
	for i, kind := range kinds {
		ifc, err := n.Attach(netsim.HostID(i))
		if err != nil {
			t.Fatal(err)
		}
		r.eps = append(r.eps, New(k, ifc, kind, &par))
	}
	return r
}

// lose drops each frame with probability rate while [from, until) is
// open (until 0: to the end of the run).
func (r *rig) lose(rate float64, from, until sim.Time) {
	r.net.SetFaultPlan(&netsim.FaultPlan{Loss: []netsim.Burst{{Window: netsim.Window{From: from, Until: until}, Rate: rate}}})
}

func (r *rig) startAll() {
	for _, e := range r.eps {
		e.Start()
	}
}

func TestEchoCallRoundTrip(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{req.Arg(0) + 1}})
	})
	r.startAll()
	var got uint32
	r.k.Spawn("caller", func(p *sim.Proc) {
		resp, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Args: []uint32{41}})
		if err != nil {
			t.Error(err)
			return
		}
		got = resp.Arg(0)
	})
	r.k.Run()
	if got != 42 {
		t.Fatalf("echo returned %d, want 42", got)
	}
}

func TestHandleRejectsKindsThatNeverReachAHandler(t *testing.T) {
	// A reply redeems the pending call its ReqID names, KindInvalid is
	// never sent, and the protocol defines no kind from NumKinds on, so a
	// handler for any of them would be dead code.
	for _, kind := range []proto.Kind{proto.KindEchoReply, proto.KindPageDeliverAck, proto.KindInvalid, proto.NumKinds, 255} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Handle(%v) accepted a handler no message can reach", kind)
				}
			}()
			newRig(t, arch.Sun).eps[0].Handle(kind, func(*sim.Proc, *proto.Message) {})
		}()
	}
}

// TestOutOfRangeKindIsUnhandled: a request of a kind the protocol does
// not define reaches no handler and counts as Unhandled, as a kind
// nobody registered does, although the receiver serves every kind the
// protocol does define; neither endpoint's per-kind tables are indexed
// with it.
func TestOutOfRangeKindIsUnhandled(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	for k := proto.KindInvalid + 1; k < proto.NumKinds; k++ {
		if !k.IsReply() {
			r.eps[1].Handle(k, func(*sim.Proc, *proto.Message) { t.Errorf("the %v handler served an undefined kind", k) })
		}
	}
	r.startAll()
	r.k.Spawn("sender", func(p *sim.Proc) {
		for _, kind := range []proto.Kind{proto.NumKinds, proto.NumKinds + 1, 255} {
			r.eps[0].SendOneWay(p, 1, &proto.Message{Kind: kind})
		}
	})
	r.k.Run()
	if s := r.eps[1].Stats(); s.Received != 3 || s.Unhandled != 3 {
		t.Errorf("receiver took %d messages and left %d unhandled, want 3 and 3", s.Received, s.Unhandled)
	}
	if s, n := r.eps[0].Stats(), r.eps[0].MessageCounts(); s.Sent != 3 || n != ([proto.NumKinds]int{}) {
		t.Errorf("sender counted %d sent and %v by kind, want 3 and none", s.Sent, n)
	}
}

func TestBulkMessageFragmentsAndReassembles(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Firefly)
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i * 7)
	}
	var received []byte
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		received = req.Data
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
	})
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		if _, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: page}); err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if len(received) != 8192 {
		t.Fatalf("received %d bytes, want 8192", len(received))
	}
	for i := range received {
		if received[i] != byte(i*7) {
			t.Fatalf("byte %d corrupted after reassembly", i)
		}
	}
	if r.eps[0].Stats().FragmentsSent < 6 {
		t.Fatalf("sent %d fragments, want ≥6 for 8KB", r.eps[0].Stats().FragmentsSent)
	}
}

func TestForwardingRepliesToOriginalRequester(t *testing.T) {
	// Requester 0 → manager 1 → owner 2; owner replies directly to 0.
	r := newRig(t, arch.Sun, arch.Sun, arch.Firefly)
	r.eps[1].Handle(proto.KindGetPage, func(p *sim.Proc, req *proto.Message) {
		r.eps[1].Forward(p, 2, req)
	})
	r.eps[2].Handle(proto.KindGetPage, func(p *sim.Proc, req *proto.Message) {
		if HostID(req.From) != 0 {
			t.Errorf("owner saw From=%d, want 0", req.From)
		}
		r.eps[2].Reply(p, req, &proto.Message{Kind: proto.KindPageReply, Args: []uint32{7}})
	})
	r.startAll()
	var got uint32
	r.k.Spawn("caller", func(p *sim.Proc) {
		resp, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindGetPage, Page: 3})
		if err != nil {
			t.Error(err)
			return
		}
		got = resp.Arg(0)
	})
	r.k.Run()
	if got != 7 {
		t.Fatalf("forwarded call returned %d, want 7", got)
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	r.lose(0.3, 0, 0)
	r.par.RequestTimeout = 20 * time.Millisecond
	handled := 0
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		handled++
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{req.Arg(0)}})
	})
	r.startAll()
	okCount := 0
	r.k.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			resp, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Args: []uint32{uint32(i)}})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.Arg(0) != uint32(i) {
				t.Errorf("call %d returned %d", i, resp.Arg(0))
				return
			}
			okCount++
		}
	})
	r.k.Run()
	if okCount != 20 {
		t.Fatalf("only %d/20 calls completed", okCount)
	}
}

func TestDuplicateRequestsDoNotReexecuteHandler(t *testing.T) {
	// Drop every frame once: the request arrives, the reply is lost,
	// the retransmitted request must be served from the reply cache.
	r := newRig(t, arch.Sun, arch.Sun)
	r.par.RequestTimeout = 20 * time.Millisecond
	executions := 0
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		executions++
		// Lose the first reply by opening a 25 ms total-loss window on it.
		if executions == 1 {
			r.lose(1, p.Now(), p.Now().Add(25*time.Millisecond))
		}
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{99}})
	})
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
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times, want exactly 1 (dedup)", executions)
	}
	if r.eps[1].Stats().Duplicates == 0 {
		t.Fatal("no duplicates recorded despite retransmission")
	}
}

// TestReplyCacheResendIsByteIdentical pins the reply cache's immutability
// rule: a duplicate is answered with exactly the bytes first sent, and a
// handler that changes its reply body after Reply is caught at the
// resend instead of answering with bytes nobody sent.
func TestReplyCacheResendIsByteIdentical(t *testing.T) {
	for _, scribble := range []bool{false, true} {
		t.Run(fmt.Sprintf("scribble=%v", scribble), func(t *testing.T) {
			r := newRig(t, arch.Sun, arch.Sun)
			body := make([]byte, 3*r.par.MTUPayload)
			for i := range body {
				body[i] = byte(i * 7)
			}
			r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
				r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{5}, Data: body})
				if scribble {
					body[len(body)/2] ^= 0xff
				}
			})
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
			if r.eps[1].Stats().Duplicates != 1 || again == nil {
				t.Fatalf("forged duplicate not answered from the cache (%d duplicates)", r.eps[1].Stats().Duplicates)
			}
			if !bytes.Equal(again.Data, first.Data) || again.Arg(0) != first.Arg(0) || again.ReqID != first.ReqID {
				t.Fatal("the resent reply differs from the first")
			}
		})
	}
}

func TestCallTimesOutOnDeadPeer(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	r.lose(1, 0, 0)
	r.par.RequestTimeout = 5 * time.Millisecond
	r.par.MaxRetries = 2
	r.startAll()
	var err error
	r.k.Spawn("caller", func(p *sim.Proc) {
		_, err = r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho})
	})
	r.k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if r.eps[0].Stats().Retransmits != 2 {
		t.Fatalf("retransmits %d, want 2", r.eps[0].Stats().Retransmits)
	}
}

func TestCallAllCollectsEveryAck(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Firefly, arch.Firefly, arch.Sun)
	for i := 1; i < 4; i++ {
		e := r.eps[i]
		e.Handle(proto.KindInvalidate, func(p *sim.Proc, req *proto.Message) {
			p.Sleep(time.Duration(e.ID()) * time.Millisecond)
			e.Reply(p, req, &proto.Message{Kind: proto.KindInvalidateAck, Args: []uint32{uint32(e.ID())}})
		})
	}
	r.startAll()
	var replies []*proto.Message
	var err error
	r.k.Spawn("caller", func(p *sim.Proc) {
		replies, err = r.eps[0].CallAll(p, []HostID{1, 2, 3}, func(dst HostID) *proto.Message {
			return &proto.Message{Kind: proto.KindInvalidate, Page: 5}
		})
	})
	r.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies, want 3", len(replies))
	}
	for i, resp := range replies {
		if resp.Arg(0) != uint32(i+1) {
			t.Fatalf("reply %d from host %d, want %d", i, resp.Arg(0), i+1)
		}
	}
}

func TestCallAllEmptyDestinations(t *testing.T) {
	r := newRig(t, arch.Sun)
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		replies, err := r.eps[0].CallAll(p, nil, nil)
		if err != nil || replies != nil {
			t.Errorf("empty CallAll: %v %v", replies, err)
		}
	})
	r.k.Run()
}

func TestCallAllRetransmitsLostInvalidations(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun, arch.Sun)
	r.lose(0.4, 0, 0)
	r.par.RequestTimeout = 20 * time.Millisecond
	for i := 1; i < 3; i++ {
		e := r.eps[i]
		e.Handle(proto.KindInvalidate, func(p *sim.Proc, req *proto.Message) {
			e.Reply(p, req, &proto.Message{Kind: proto.KindInvalidateAck})
		})
	}
	r.startAll()
	var err error
	r.k.Spawn("caller", func(p *sim.Proc) {
		_, err = r.eps[0].CallAll(p, []HostID{1, 2}, func(HostID) *proto.Message {
			return &proto.Message{Kind: proto.KindInvalidate}
		})
	})
	r.k.Run()
	if err != nil {
		t.Fatal(err)
	}
}

// measureTransfer returns the simulated one-way cost of moving a page of
// `size` bytes from a host of kind `from` to a host of kind `to`,
// matching the paper's Table 2 methodology (transfer only, no fault or
// conversion costs).
func measureTransfer(t *testing.T, from, to arch.Kind, size int) time.Duration {
	t.Helper()
	r := newRig(t, from, to)
	var done sim.Time
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		done = p.Now()
	})
	r.startAll()
	var start sim.Time
	r.k.Spawn("sender", func(p *sim.Proc) {
		start = p.Now()
		r.eps[0].SendOneWay(p, 1, &proto.Message{Kind: proto.KindEcho, Data: make([]byte, size)})
	})
	r.k.Run()
	if done == 0 {
		t.Fatal("page never arrived")
	}
	return done.Sub(start)
}

func TestTable2EmergentTransferCosts(t *testing.T) {
	// Paper Table 2 (ms): rows = sender, cols = receiver.
	tests := []struct {
		from, to arch.Kind
		size     int
		wantMS   float64
	}{
		{arch.Sun, arch.Sun, 8192, 18},
		{arch.Sun, arch.Firefly, 8192, 27},
		{arch.Firefly, arch.Sun, 8192, 25},
		{arch.Firefly, arch.Firefly, 8192, 33},
		{arch.Sun, arch.Sun, 1024, 5.1},
		{arch.Sun, arch.Firefly, 1024, 7.6},
		{arch.Firefly, arch.Sun, 1024, 7.3},
		{arch.Firefly, arch.Firefly, 1024, 6.7},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("%v->%v/%d", tt.from, tt.to, tt.size), func(t *testing.T) {
			got := measureTransfer(t, tt.from, tt.to, tt.size)
			gotMS := float64(got) / float64(time.Millisecond)
			if gotMS < tt.wantMS*0.90 || gotMS > tt.wantMS*1.10 {
				t.Errorf("transfer %v→%v %dB = %.2f ms, paper %.1f ms (>10%% off)",
					tt.from, tt.to, tt.size, gotMS, tt.wantMS)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
	})
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		_, _ = r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: make([]byte, 3000)})
	})
	r.k.Run()
	s0, s1 := r.eps[0].Stats(), r.eps[1].Stats()
	if s0.Sent != 1 || s0.BulkBytes != 3000 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.Received != 1 || s1.FragmentsReceived != 3 {
		t.Fatalf("receiver stats %+v", s1)
	}
	if s0.Received != 1 {
		t.Fatalf("caller did not count the reply: %+v", s0)
	}
}

func TestFragmentationBoundaries(t *testing.T) {
	// Messages whose encoded size lands exactly on MTU multiples (or one
	// off) must reassemble byte-perfectly.
	mp := model.Default()
	header := 20 // proto header bytes
	for _, delta := range []int{-1, 0, 1} {
		for _, mult := range []int{1, 2, 5} {
			size := mp.MTUPayload*mult - header + delta
			if size <= 0 {
				continue
			}
			r := newRig(t, arch.Sun, arch.Firefly)
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			var got []byte
			r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
				got = req.Data
				r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
			})
			r.startAll()
			r.k.Spawn("caller", func(p *sim.Proc) {
				if _, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: payload}); err != nil {
					t.Error(err)
				}
			})
			r.k.Run()
			if len(got) != size {
				t.Fatalf("size %d (mult %d delta %d): got %d bytes", size, mult, delta, len(got))
			}
			for i := range got {
				if got[i] != byte(i) {
					t.Fatalf("size %d: byte %d corrupted", size, i)
				}
			}
		}
	}
}

func TestInterleavedBulkMessagesReassembleIndependently(t *testing.T) {
	// Two senders stream large messages to one receiver concurrently;
	// per-(source,message) reassembly must not mix fragments.
	r := newRig(t, arch.Sun, arch.Firefly, arch.Sun)
	var got [][]byte
	r.eps[2].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		got = append(got, req.Data)
	})
	r.startAll()
	for s := 0; s < 2; s++ {
		s := s
		r.k.Spawn("sender", func(p *sim.Proc) {
			data := make([]byte, 6000)
			for i := range data {
				data[i] = byte(s*100 + i%50)
			}
			r.eps[s].SendOneWay(p, 2, &proto.Message{Kind: proto.KindEcho, Data: data})
		})
	}
	r.k.Run()
	if len(got) != 2 {
		t.Fatalf("received %d messages, want 2", len(got))
	}
	for _, data := range got {
		s := int(data[0]) / 100
		for i := range data {
			if data[i] != byte(s*100+i%50) {
				t.Fatalf("fragments of senders mixed at byte %d", i)
			}
		}
	}
}

// TestCallMulticastCollectsTargetAcks: the call completes on the last
// target's acknowledgement, each target counted once. Host 1 acks twice
// and bystander 2 acks although not addressed; target 3 acks last, after
// a delay, and the call must still be waiting for it — counting either
// stray ack would complete it before host 3 has answered. It also runs
// with target 3 reported dead by the caller's peer check while it is in
// fact up: a multicast does not ask the detector (see CallMulticast), so
// host 3 is still sent to, still answers, and the call succeeds.
func TestCallMulticastCollectsTargetAcks(t *testing.T) {
	t.Run("live", func(t *testing.T) { callMulticastCollectsTargetAcks(t, Broadcast) })
	t.Run("target-declared-dead", func(t *testing.T) { callMulticastCollectsTargetAcks(t, 3) })
}

// callMulticastCollectsTargetAcks multicasts to hosts 1 and 3 of five,
// the caller's peer check reporting host dead as dead (Broadcast: no
// host).
func callMulticastCollectsTargetAcks(t *testing.T, dead HostID) {
	r := newRig(t, arch.Sun, arch.Firefly, arch.Firefly, arch.Sun, arch.Sun)
	r.eps[0].SetPeerCheck(func(h HostID) bool { return h == dead })
	acked := make(map[HostID]bool)
	var lastAck sim.Time
	for i := 1; i < 5; i++ {
		e := r.eps[i]
		e.Handle(proto.KindInvalidate, func(p *sim.Proc, req *proto.Message) {
			// Targets are listed in Args; bystanders other than host 2
			// stay silent.
			member := slices.Contains(req.Args, uint32(e.ID()))
			switch {
			case e.ID() == 2:
				e.Reply(p, req, &proto.Message{Kind: proto.KindInvalidateAck})
				return
			case !member:
				return
			case e.ID() == 1:
				e.Reply(p, req, &proto.Message{Kind: proto.KindInvalidateAck})
			case e.ID() == 3:
				p.Sleep(5 * time.Millisecond)
				lastAck = p.Now()
			}
			acked[e.ID()] = true
			e.Reply(p, req, &proto.Message{Kind: proto.KindInvalidateAck})
		})
	}
	r.startAll()
	targets := []HostID{1, 3}
	var done sim.Time
	r.k.Spawn("caller", func(p *sim.Proc) {
		if err := r.eps[0].CallMulticast(p, targets, &proto.Message{
			Kind: proto.KindInvalidate,
			Args: []uint32{1, 3},
		}); err != nil {
			t.Error(err)
		}
		done = p.Now()
	})
	r.k.Run()
	if !acked[1] || !acked[3] {
		t.Fatalf("targets not acked: %v", acked)
	}
	if acked[4] {
		t.Fatalf("bystanders acted: %v", acked)
	}
	if done <= lastAck {
		t.Fatalf("call completed at %v, before target 3 acked at %v: a bystander's or a duplicate ack was counted", done, lastAck)
	}
	// One broadcast frame, not one per target.
	if sent := r.eps[0].Stats().FragmentsSent; sent != 1 {
		t.Fatalf("caller sent %d frames, want 1 broadcast", sent)
	}
}

func TestCallMulticastRecoversLostAcks(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun, arch.Sun)
	r.lose(0.4, 0, 0)
	r.par.RequestTimeout = 20 * time.Millisecond
	for i := 1; i < 3; i++ {
		e := r.eps[i]
		e.Handle(proto.KindInvalidate, func(p *sim.Proc, req *proto.Message) {
			e.Reply(p, req, &proto.Message{Kind: proto.KindInvalidateAck})
		})
	}
	r.startAll()
	var err error
	r.k.Spawn("caller", func(p *sim.Proc) {
		err = r.eps[0].CallMulticast(p, []HostID{1, 2}, &proto.Message{
			Kind: proto.KindInvalidate,
			Args: []uint32{1, 2},
		})
	})
	r.k.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallMulticastEmptyTargets(t *testing.T) {
	r := newRig(t, arch.Sun)
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		if err := r.eps[0].CallMulticast(p, nil, &proto.Message{Kind: proto.KindInvalidate}); err != nil {
			t.Errorf("empty multicast: %v", err)
		}
	})
	r.k.Run()
}

func TestCallBlockingWaitsThroughRetries(t *testing.T) {
	// A reply that arrives long after several blocking-retry intervals
	// must still complete the call exactly once.
	r := newRig(t, arch.Sun, arch.Firefly)
	r.par.RequestTimeout = 10 * time.Millisecond
	r.par.MaxRetries = 5 // blocking calls retransmit every 50 ms
	var firstReq *proto.Message
	r.eps[1].Handle(proto.KindSemOp, func(p *sim.Proc, req *proto.Message) {
		if firstReq == nil {
			firstReq = req
			// Grant much later — the caller keeps retransmitting and
			// the duplicate cache keeps absorbing.
			r.k.After(400*time.Millisecond, func() {
				r.k.Spawn("granter", func(gp *sim.Proc) {
					r.eps[1].Reply(gp, firstReq, &proto.Message{Kind: proto.KindSemReply, Args: []uint32{7}})
				})
			})
		}
	})
	r.startAll()
	var got uint32
	var at sim.Time
	r.k.Spawn("caller", func(p *sim.Proc) {
		resp, err := r.eps[0].CallBlocking(p, 1, &proto.Message{Kind: proto.KindSemOp})
		if err != nil {
			t.Errorf("blocking call: %v", err)
			return
		}
		got = resp.Arg(0)
		at = p.Now()
	})
	r.k.RunFor(2 * time.Second)
	if got != 7 {
		t.Fatalf("blocking call returned %d, want 7", got)
	}
	if at < sim.Time(400*time.Millisecond) {
		t.Fatalf("granted at %v, before the grant", at)
	}
	if r.eps[0].Stats().Retransmits < 5 {
		t.Fatalf("only %d retransmits over a 400ms wait with 50ms patience", r.eps[0].Stats().Retransmits)
	}
	if r.eps[1].Stats().Duplicates < 5 {
		t.Fatalf("server absorbed only %d duplicates", r.eps[1].Stats().Duplicates)
	}
}

func TestRedeemCompletesPendingCall(t *testing.T) {
	// A third party can satisfy a pending call by delivering its
	// payload as a separate request that the handler redeems — the
	// forwarded-page-delivery pattern.
	r := newRig(t, arch.Sun, arch.Sun, arch.Sun)
	r.eps[1].Handle(proto.KindGetPage, func(p *sim.Proc, req *proto.Message) {
		// Hand off to host 2, telling it the requester and request ID.
		r.eps[1].SendOneWay(p, 2, &proto.Message{
			Kind: proto.KindServeRequest,
			Args: []uint32{req.From, req.ReqID},
		})
	})
	r.eps[2].Handle(proto.KindServeRequest, func(p *sim.Proc, req *proto.Message) {
		r.eps[2].SendOneWay(p, HostID(req.Arg(0)), &proto.Message{
			Kind: proto.KindPageDeliver,
			Args: []uint32{0, req.Arg(1)},
			Data: []byte("payload"),
		})
	})
	r.eps[0].Handle(proto.KindPageDeliver, func(p *sim.Proc, req *proto.Message) {
		if !r.eps[0].Redeem(req.Arg(1), req) {
			t.Error("redeem failed")
		}
		if r.eps[0].Redeem(req.Arg(1), req) {
			t.Error("double redeem succeeded")
		}
	})
	r.startAll()
	var got string
	r.k.Spawn("caller", func(p *sim.Proc) {
		resp, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindGetPage, Page: 9})
		if err != nil {
			t.Error(err)
			return
		}
		got = string(resp.Data)
	})
	r.k.Run()
	if got != "payload" {
		t.Fatalf("redeemed %q", got)
	}
}

func TestEndpointKindAccessor(t *testing.T) {
	r := newRig(t, arch.Firefly)
	if r.eps[0].Kind() != arch.Firefly {
		t.Fatal("Kind accessor wrong")
	}
}

func TestDedupCacheEviction(t *testing.T) {
	// Overflowing the duplicate cache must evict oldest entries without
	// corrupting newer ones.
	r := newRig(t, arch.Sun, arch.Sun)
	served := 0
	r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		served++
		r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply, Args: []uint32{req.Arg(0)}})
	})
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 2100; i++ { // beyond dedupCap
			resp, err := r.eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Args: []uint32{uint32(i)}})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.Arg(0) != uint32(i) {
				t.Errorf("call %d returned %d", i, resp.Arg(0))
				return
			}
		}
	})
	r.k.Run()
	if served != 2100 {
		t.Fatalf("served %d of 2100", served)
	}
}

// TestUnicastEncodeOwnerArmsRefcount pins the send path's ownership of
// its encode buffer: the refcounted owner must take the pooled encode
// buffer in the same branch that acquires it, and its refcount
// must be armed to the exact fragment count — an unarmed (zero)
// refcount would make the first release go negative and strand the
// buffer forever.
func TestUnicastEncodeOwnerArmsRefcount(t *testing.T) {
	r := newRig(t, arch.Sun, arch.Sun)
	// Endpoint 1 is deliberately not started: its server loop would
	// consume and release the fragments, so read the raw frames instead
	// to observe the shared encode owner before any release.
	payload := make([]byte, 3*r.par.MTUPayload+10)
	var frags []*fragment
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.eps[0].send(p, 1, &proto.Message{Kind: proto.KindEcho, Data: payload})
	})
	r.k.Spawn("collector", func(p *sim.Proc) {
		for {
			frame := r.eps[1].ifc.Recv(p)
			fr := frame.Payload.(*fragment)
			frags = append(frags, fr)
			if len(frags) == fr.total {
				return
			}
		}
	})
	r.k.Run()

	if len(frags) < 4 {
		t.Fatalf("got %d fragments, want ≥4 for %d bytes", len(frags), len(payload))
	}
	owner := frags[0].owner
	if owner == nil || owner.buf == nil {
		t.Fatal("unicast fragments must share a pooled, owner-held encode buffer")
	}
	for i, fr := range frags {
		if fr.owner != owner {
			t.Fatalf("fragment %d has a different owner", i)
		}
	}
	if got := owner.remaining.Load(); got != int32(len(frags)) {
		t.Fatalf("owner refcount armed to %d, want %d (the fragment count)", got, len(frags))
	}
	// Releasing every fragment must return the buffer exactly at zero.
	for _, fr := range frags {
		releaseFrag(fr)
	}
	if got := owner.remaining.Load(); got != 0 {
		t.Fatalf("refcount %d after releasing all fragments, want 0", got)
	}
	if owner.buf != nil {
		t.Fatal("encode buffer not returned to the pool after the last release")
	}
}
