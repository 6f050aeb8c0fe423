package dsync

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/proto"
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

// TestSemaphoreLongBlockSurvivesRetransmission blocks each blocking
// operation for 30 s — six blocking retry intervals — at a remote
// manager. The retransmissions must neither inflate a count nor count
// as arrivals: the manager grants once, and a second operation blocks
// again unless the primitive stays open (a set event).
func TestSemaphoreLongBlockSurvivesRetransmission(t *testing.T) {
	cases := []struct {
		name    string
		define  func(r *rig)
		block   func(s *Service, p *sim.Proc, id uint32) // on host 1
		release func(s *Service, p *sim.Proc, id uint32) // on the manager, host 0, at 30 s
		reply   proto.Kind
		again   bool // a second block on host 1 passes
	}{
		{"P", func(r *rig) { r.defineSem(1, 0, 0) }, (*Service).P, (*Service).V, proto.KindSemReply, false},
		{"EventWait", func(r *rig) { r.defineEvent(1, 0) }, (*Service).EventWait, (*Service).EventSet, proto.KindEventReply, true},
		{"BarrierArrive", func(r *rig) { r.defineBarrier(1, 0, 2) }, (*Service).BarrierArrive, (*Service).BarrierArrive, proto.KindBarrierReply, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2)
			tc.define(r)
			var granted sim.Time
			r.k.Spawn("waiter", func(p *sim.Proc) {
				tc.block(r.svcs[1], p, 1)
				granted = p.Now()
			})
			r.k.Spawn("releaser", func(p *sim.Proc) {
				p.Sleep(30 * time.Second)
				tc.release(r.svcs[0], p, 1)
			})
			r.k.Run()
			if granted < sim.Time(30*time.Second) {
				t.Fatalf("%s granted at %v, want ≥30s", tc.name, granted)
			}
			if n := r.svcs[1].ep.Stats().Retransmits; n < 5 {
				t.Fatalf("%d retransmissions, want ≥5 over 30 s", n)
			}
			if n := r.svcs[0].ep.MessageCounts()[tc.reply]; n != 1 {
				t.Fatalf("manager sent %d %v, want 1 grant", n, tc.reply)
			}
			// A blocked remote operation retransmits forever, so bound
			// the run in virtual time rather than draining the queue.
			passed := false
			r.k.Spawn("second", func(p *sim.Proc) {
				tc.block(r.svcs[1], p, 1)
				passed = true
			})
			r.k.RunFor(time.Minute)
			if passed != tc.again {
				t.Fatalf("second %s passed = %v, want %v", tc.name, passed, tc.again)
			}
		})
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

// TestBarrierArrivalDuringGrantKeepsItsPlace: the manager grants a
// completed round's remote participants one reply send at a time, so on
// 16 hosts the first released ones arrive for the next round before the
// last grant is out. Those arrivals must stay queued for that round,
// not be dropped with the list of the round just released (7 of the 15
// remote participants then stayed parked for good).
func TestBarrierArrivalDuringGrantKeepsItsPlace(t *testing.T) {
	const n = 16
	r := newRig(t, n)
	r.defineBarrier(1, 0, n)
	done := 0
	for i := 0; i < n; i++ {
		i := i
		r.k.Spawn("w", func(p *sim.Proc) {
			if i == 0 {
				p.Sleep(100 * time.Millisecond) // the manager arrives last, locally
			}
			for round := 0; round < 2; round++ {
				r.svcs[i].BarrierArrive(p, 1)
				done++
			}
		})
	}
	r.k.RunFor(time.Minute)
	if done != 2*n {
		t.Fatalf("%d of %d arrivals released over two rounds", done, 2*n)
	}
}

// TestOverlappingEventSetsReleaseEveryWaiter: two hosts set one event at
// once, so the manager's second grant loop runs while the first is
// still sending replies. Every waiter is released, and the first loop
// must cope with finding the queue already emptied.
func TestOverlappingEventSetsReleaseEveryWaiter(t *testing.T) {
	r := newRig(t, 6)
	r.defineEvent(5, 0)
	released := 0
	for i := 3; i < 6; i++ {
		i := i
		r.k.Spawn("waiter", func(p *sim.Proc) {
			r.svcs[i].EventWait(p, 5)
			released++
		})
	}
	for i := 1; i < 3; i++ {
		i := i
		r.k.Spawn("setter", func(p *sim.Proc) {
			p.Sleep(20 * time.Millisecond)
			r.svcs[i].EventSet(p, 5)
		})
	}
	r.k.Run()
	if released != 3 {
		t.Fatalf("%d of 3 waiters released", released)
	}
}

func TestUndefinedPrimitivePanics(t *testing.T) {
	cases := []struct {
		name string
		op   func(s *Service, p *sim.Proc, id uint32)
		want string
	}{
		{"P", (*Service).P, "dsync: semaphore 42 not defined"},
		{"V", (*Service).V, "dsync: semaphore 42 not defined"},
		{"EventWait", (*Service).EventWait, "dsync: event 42 not defined"},
		{"EventSet", (*Service).EventSet, "dsync: event 42 not defined"},
		{"BarrierArrive", (*Service).BarrierArrive, "dsync: barrier 42 not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1)
			var got any
			r.k.Spawn("main", func(p *sim.Proc) {
				defer func() { got = recover() }()
				tc.op(r.svcs[0], p, 42)
			})
			func() {
				defer func() { _ = recover() }() // kernel re-panics; absorb
				r.k.Run()
			}()
			if got != tc.want {
				t.Fatalf("%s on an undefined primitive: recovered %v, want %q", tc.name, got, tc.want)
			}
		})
	}
}

// wordModel is a SyncModel whose payload is one little-endian word and
// whose merge is max, so merged, granted and hashed payloads carry
// bytes. Each release ships the host's next word, 16·host + releases.
type wordModel struct {
	host     int
	releases uint32
	acquired uint32 // the word the host's last acquire delivered
}

func word(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (m *wordModel) ReleasePayload(*sim.Proc) ([]byte, error) {
	m.releases++
	return binary.LittleEndian.AppendUint32(nil, uint32(16*m.host)+m.releases), nil
}

func (m *wordModel) AcquirePayload(_ *sim.Proc, data []byte) error {
	m.acquired = word(data)
	return nil
}

func (m *wordModel) MergePayload(a, b []byte) []byte {
	return binary.LittleEndian.AppendUint32(nil, max(word(a), word(b)))
}

// digestChooser takes the first alternative at every choice point — the
// order a run without a chooser keeps — and folds the instant and every
// alternative's label into an FNV-64.
type digestChooser struct{ h hash.Hash64 }

func (c *digestChooser) Choose(now sim.Time, n int, label func(int) string) int {
	fmt.Fprintf(c.h, "%d", now)
	for i := 0; i < n; i++ {
		c.h.Write([]byte(label(i)))
		c.h.Write([]byte{0})
	}
	return 0
}

// TestSyncTranscriptPinned runs all five operations, with the manager
// local and remote, on four hosts whose model ships one-word payloads,
// and pins what the run did: the labelled dispatch sequence, when each
// operation completed and with what payload, the kernel's work counts
// and every host's state hash. The run holds a remote P queued and
// granted by a remote V, a P blocked 30 s at a remote manager, event
// waits before and after the set, and a barrier reused for two rounds
// with local and remote arrivals.
func TestSyncTranscriptPinned(t *testing.T) {
	r := newRig(t, 4)
	ch := &digestChooser{h: fnv.New64a()}
	r.k.SetChooser(ch)
	models := make([]*wordModel, 4)
	for i, s := range r.svcs {
		models[i] = &wordModel{host: i}
		s.AttachModel(models[i])
	}
	r.defineSem(1, 0, 0)
	r.defineSem(2, 1, 2)
	r.defineEvent(5, 2)
	r.defineEvent(6, 0)
	r.defineBarrier(9, 3, 3)

	var log strings.Builder
	op := func(host int, at time.Duration, name string, f func(*Service, *sim.Proc, uint32), id uint32) {
		r.k.Spawn(fmt.Sprintf("h%d-%s-%d", host, name, id), func(p *sim.Proc) {
			p.Sleep(at)
			f(r.svcs[host], p, id)
			fmt.Fprintf(&log, "%v h%d %s(%d) acquired=%d\n", p.Now(), host, name, id, models[host].acquired)
		})
	}
	P, V := (*Service).P, (*Service).V
	Wait, Set := (*Service).EventWait, (*Service).EventSet
	Arrive := (*Service).BarrierArrive

	// Semaphore 1 (manager 0, count 0).
	op(1, 0, "P", P, 1)                   // remote, queued
	op(2, 20*time.Millisecond, "V", V, 1) // remote V grants the queued remote P
	op(0, 30*time.Millisecond, "P", P, 1) // local, parks
	op(3, 40*time.Millisecond, "P", P, 1) // remote, queued behind it
	op(1, 60*time.Millisecond, "V", V, 1) // remote V grants the local waiter
	op(0, 30*time.Second, "V", V, 1)      // local V grants h3, blocked 30 s
	op(2, 31*time.Second, "V", V, 1)      // remote V, nobody waits: count 1
	// Semaphore 2 (manager 1, count 2).
	op(1, 0, "P", P, 2)                   // local, passes
	op(0, time.Millisecond, "P", P, 2)    // remote, passes
	op(3, 2*time.Millisecond, "P", P, 2)  // remote, queued
	op(1, 50*time.Millisecond, "V", V, 2) // local V grants the remote waiter
	op(2, 70*time.Millisecond, "V", V, 2) // remote V: count 1
	// Event 5 (manager 2).
	op(0, 0, "EventWait", Wait, 5)                   // remote, queued
	op(2, 0, "EventWait", Wait, 5)                   // local, parks
	op(3, 10*time.Millisecond, "EventSet", Set, 5)   // remote set grants both
	op(1, 20*time.Millisecond, "EventWait", Wait, 5) // remote, after the set
	op(2, 25*time.Millisecond, "EventWait", Wait, 5) // local, after the set
	// Event 6 (manager 0): a local set nobody waits for.
	op(0, 5*time.Millisecond, "EventSet", Set, 6)
	op(1, 15*time.Millisecond, "EventWait", Wait, 6)
	// Barrier 9 (manager 3, 3 participants), two rounds.
	op(3, 0, "BarrierArrive", Arrive, 9)
	op(1, 5*time.Millisecond, "BarrierArrive", Arrive, 9)
	op(2, 10*time.Millisecond, "BarrierArrive", Arrive, 9) // remote arrival releases
	op(1, 100*time.Millisecond, "BarrierArrive", Arrive, 9)
	op(2, 110*time.Millisecond, "BarrierArrive", Arrive, 9)
	op(3, 120*time.Millisecond, "BarrierArrive", Arrive, 9) // local arrival releases
	r.k.Run()

	const wantLog = `0s h1 P(2) acquired=0
2.2408ms h0 P(2) acquired=0
5ms h0 EventSet(6) acquired=0
17.1036ms h3 BarrierArrive(9) acquired=49
17.3068ms h2 EventWait(5) acquired=50
20.3844ms h3 EventSet(5) acquired=49
22.224ms h1 EventWait(6) acquired=1
23.6072ms h0 EventWait(5) acquired=50
25ms h2 EventWait(5) acquired=50
25.5644ms h2 BarrierArrive(9) acquired=49
26.314ms h1 BarrierArrive(9) acquired=49
29.204ms h1 EventWait(5) acquired=50
29.9748ms h2 V(1) acquired=49
33.9976ms h1 P(1) acquired=34
52.9604ms h1 V(2) acquired=34
56.3004ms h3 P(2) acquired=18
67.1068ms h0 P(1) acquired=34
67.224ms h1 V(1) acquired=34
77.024ms h2 V(2) acquired=49
124.3208ms h3 BarrierArrive(9) acquired=51
126.3004ms h1 BarrierArrive(9) acquired=51
128.4608ms h2 BarrierArrive(9) acquired=51
30.0021604s h0 V(1) acquired=34
30.0043004s h3 P(1) acquired=34
31.007224s h2 V(1) acquired=51
`
	if got := log.String(); got != wantLog {
		t.Errorf("completions:\n%s\nwant:\n%s", got, wantLog)
	}
	if got, want := ch.h.Sum64(), uint64(0xb602756c6056c12a); got != want {
		t.Errorf("dispatch sequence digest %#x, want %#x", got, want)
	}
	if got, want := r.k.Counts(), (sim.Counts{Events: 271, Resumes: 108, Spawns: 41}); got != want {
		t.Errorf("kernel counts %+v, want %+v", got, want)
	}
	hashes := make([]uint64, len(r.svcs))
	for i, s := range r.svcs {
		h := fnv.New64a()
		s.WriteStateHash(h)
		hashes[i] = h.Sum64()
	}
	if want := []uint64{0x2025b4ee4d082f3f, 0x256a24b3f1537779, 0x491f21de5794e84c, 0xfe8fd0009aa5ef41}; !slices.Equal(hashes, want) {
		t.Errorf("state hashes %#x, want %#x", hashes, want)
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
