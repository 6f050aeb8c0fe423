package remoteop

// The per-host server is two events, not a process (Endpoint.pump).
// These tests hold it to what the process did: the same events under
// the same labels, and the same behaviour when its host dies mid-receive.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/proto"
	"repro/internal/sim"
)

// firstReal is a chooser that keeps the kernel's default order among
// real events but declines every "marker" callback while anything else
// is eligible, and logs the label it picks. With a marker scheduled at
// every instant of a run, every event of that run meets the chooser.
// note, if set, adds the state it describes to each line.
type firstReal struct {
	picked []string
	note   func() string
}

func (c *firstReal) Choose(now sim.Time, n int, label func(int) string) int {
	for i := 0; i < n; i++ {
		if l := label(i); l != "marker" {
			if c.note != nil {
				l += " " + c.note()
			}
			c.picked = append(c.picked, now.String()+" "+l)
			return i
		}
	}
	return 0
}

// forwardedPageFetch is the exchange the transcript below pins: host 1
// asks host 0, which forwards to host 2, which answers host 1 directly
// with an 8 KB page — from a handler process, or from an event handler.
func forwardedPageFetch(t *testing.T, k *sim.Kernel, event bool) *rig {
	r := newRigOn(t, k, arch.Sun, arch.Firefly, arch.Sun)
	r.eps[0].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
		r.eps[0].Forward(p, 2, req)
	})
	page := func() *proto.Message { return &proto.Message{Kind: proto.KindEchoReply, Data: make([]byte, 8192)} }
	if event {
		r.eps[2].HandleEvent(proto.KindEcho, EventHandler{Reply: func(*proto.Message) *proto.Message { return page() }})
	} else {
		r.eps[2].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
			r.eps[2].Reply(p, req, page())
		})
	}
	r.startAll()
	r.k.Spawn("caller", func(p *sim.Proc) {
		resp, err := r.eps[1].Call(p, 0, &proto.Message{Kind: proto.KindEcho})
		if err != nil || len(resp.Data) != 8192 {
			t.Errorf("forwarded fetch: %d bytes, error %v", len(resp.Data), err)
		}
	})
	return r
}

// transcript runs what build sets up twice: the first run learns every
// instant at which it dispatches anything, the second plants a marker
// at each before building it, so that every event meets the chooser,
// which logs them, each with what note says of the rig if note is set.
// It returns the log and the second run's rig.
func transcript(t *testing.T, build func(k *sim.Kernel) *rig, note func(r *rig) string) (string, *rig) {
	r := build(sim.NewKernel(1))
	instants := []sim.Time{0}
	for r.k.Step() {
		if now := r.k.Now(); now != instants[len(instants)-1] {
			instants = append(instants, now)
		}
	}
	k := sim.NewKernel(1)
	ch := &firstReal{}
	k.SetChooser(ch)
	for _, at := range instants {
		k.AfterNamed("marker", sim.Duration(at), func() {})
	}
	r = build(k)
	if note != nil {
		ch.note = func() string { return note(r) }
	}
	r.k.Run()
	return strings.Join(ch.picked, "\n"), r
}

func TestServerEventsKeepTheLabelsOfTheServerProcess(t *testing.T) {
	got, r := transcript(t, func(k *sim.Kernel) *rig { return forwardedPageFetch(t, k, false) }, nil)
	if got != strings.TrimSpace(forwardedPageFetchTranscript) {
		t.Errorf("labelled dispatch sequence of a forwarded 8 KB fetch changed:\n%s", got)
	}
	if s := r.k.Stalled(); len(s) != 0 {
		t.Errorf("left parked after the exchange: %v (the server is not a process)", s)
	}
}

// A host that dies while its server is charging a bulk receive still
// hands the message to a handler when the cost has run — the reassembled
// message is past the NIC — but the handler unwinds at its first send:
// nothing leaves a crashed host, and the requester times out.
func TestCrashDuringBulkReceive(t *testing.T) {
	handlerAt := func(crashAt sim.Duration) (started sim.Time, r *rig, err error) {
		r = newRig(t, arch.Sun, arch.Firefly)
		r.eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
			started = p.Now()
			r.eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
		})
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
		return started, r, err
	}
	started, _, err := handlerAt(0)
	if err != nil || started == 0 {
		t.Fatalf("undisturbed call: handler started at %v, error %v", started, err)
	}
	// The handler starts the instant the receive cost has run, and the
	// cost is milliseconds: a microsecond earlier is inside it.
	again, r, err := handlerAt(sim.Duration(started) - time.Microsecond)
	if again != started {
		t.Errorf("handler on the crashed host started at %v, want %v as without the crash", again, started)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("caller got %v, want ErrTimeout", err)
	}
	if s := r.eps[1].Stats(); s.Received != 1 || s.Sent != 0 {
		t.Errorf("crashed endpoint received %d messages and sent %d, want 1 and 0", s.Received, s.Sent)
	}
}

const forwardedPageFetchTranscript = `
0s wake:net-server-0
0s wake:net-server-1
0s wake:net-server-2
0s wake:caller
67.2µs timer:caller
117.2µs net:h0<-h1
117.2µs wake:net-server-0
117.2µs wake:handler-0-echo
184.4µs timer:handler-0-echo
234.4µs net:h2<-h0
234.4µs wake:net-server-2
234.4µs wake:handler-2-echo
1.6334ms timer:handler-2-echo
2.3244ms timer:handler-2-echo
3.4956ms timer:handler-2-echo
3.5456ms net:h1<-h2
3.5456ms wake:net-server-1
4.1866ms timer:handler-2-echo
5.3578ms timer:handler-2-echo
5.4078ms net:h1<-h2
5.4078ms wake:net-server-1
6.0488ms timer:handler-2-echo
7.22ms timer:handler-2-echo
7.27ms net:h1<-h2
7.27ms wake:net-server-1
7.911ms timer:handler-2-echo
9.0822ms timer:handler-2-echo
9.1322ms net:h1<-h2
9.1322ms wake:net-server-1
9.7732ms timer:handler-2-echo
10.9444ms timer:handler-2-echo
10.9944ms net:h1<-h2
10.9944ms wake:net-server-1
11.6354ms timer:handler-2-echo
12.6562ms timer:handler-2-echo
12.7062ms net:h1<-h2
12.7062ms wake:net-server-1
26.9512ms timer:net-server-1
26.9512ms wake:caller
`
