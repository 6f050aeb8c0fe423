// Package netsim models the cluster's Ethernet in virtual time. The
// default shape is the paper's single 10 Mb/s shared bus: one frame
// transmits at a time, occupying the medium for its wire time, and
// delivery to the destination's interface queue happens after a fixed
// latency. A Topology generalizes this to a switched multi-segment
// network — per-segment media, profiled inter-segment links, spanning-
// tree broadcast — with the one-segment case staying bit-identical to
// the original bus (see topology.go).
//
// The model enforces the MTU — larger messages must be fragmented above
// this layer, exactly as Mermaid had to fragment at user level because
// the Firefly's UDP lacked fragmentation (§2.2). Seeded frame loss,
// scripted by a FaultPlan (fault.go), exercises the remote-operation
// layer's retransmission.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/model"
	"repro/internal/sim"
)

// HostID identifies a host on the network. IDs are dense and start at 0.
type HostID int

// Broadcast is the destination for physical broadcast frames.
const Broadcast HostID = -1

// Frame is one link-layer frame. Payload is an opaque reference (the
// remote-operation layer passes fragment structs); Size is the payload
// size in bytes used for wire-time accounting.
type Frame struct {
	// From is the sending host.
	From HostID
	// To is the destination host, or Broadcast.
	To HostID
	// Size is the payload length in bytes (headers are accounted by the
	// cost model, not included here).
	Size int
	// Payload carries the upper-layer data.
	Payload any
}

// Stats aggregates network-level counters.
type Stats struct {
	// FramesSent counts transmission attempts.
	FramesSent int
	// FramesDropped counts frames lost to fault-plan loss windows.
	FramesDropped int
	// BytesSent counts payload bytes transmitted.
	BytesSent int
	// BusyTime is the total time the sender-side medium was occupied.
	BusyTime sim.Duration
	// FramesCut counts frames lost to an open partition or link cut.
	FramesCut int
	// FramesCorrupted counts frames whose payload was damaged in flight.
	FramesCorrupted int
	// FramesDuplicated counts frames delivered twice.
	FramesDuplicated int
	// FramesToDead counts frames that arrived at a down host's NIC.
	FramesToDead int
	// CrossSegmentFrames counts inter-segment link traversals — one per
	// link a frame (or a broadcast's tree copy) crosses. Always 0 on a
	// one-segment network.
	CrossSegmentFrames int
}

// Network is a simulated Ethernet: one shared segment by default, or a
// switched multi-segment topology.
type Network struct {
	k      *sim.Kernel
	params *model.Params
	topo   *Topology
	cable  *sim.Resource // pre-freeze handle for the degenerate bus
	ifaces []*Interface  // dense by HostID
	stats  Stats

	// Frozen topology tables (built by freeze on first transmission).
	frozen     bool
	segs       []*segment
	links      []*netlink
	hostSeg    []int16
	nextLink   [][]int16 // [src][dst] → first link on the path
	btree      [][]treeEdge
	segArrival []sim.Time // broadcast scratch, one slot per segment

	// labels caches delivery-event names for the model checker's
	// schedule diagnostics; without a chooser installed no label is
	// formatted at all.
	labels map[labelKey]string
	// freeDeliv pools delivery records so steady-state delivery
	// scheduling allocates nothing.
	freeDeliv []*delivery

	// plan scripts injected faults (see fault.go); nil injects nothing.
	plan *FaultPlan
	// down marks crashed hosts' NICs, dense by HostID.
	down []bool
	// clone and corruptFn are the payload hooks for the duplicate and
	// corrupt faults (see SetPayloadHooks).
	clone     func(payload any) any
	corruptFn func(payload any, r *rand.Rand) any
}

type labelKey struct{ to, from HostID }

// Interface is a host's attachment to the network: an inbound queue the
// host's protocol server consumes.
type Interface struct {
	id  HostID
	net *Network
	rx  *sim.TypedQueue[Frame]
}

// delivery is a pooled pending-delivery record: the argument of the
// shared delivery callback, so scheduling a delivery builds no closure.
type delivery struct {
	n   *Network
	ifc *Interface
	f   Frame
}

// deliverPooled is the single delivery callback all delivery events
// share (a top-level function value costs nothing to schedule).
func deliverPooled(a any) {
	d := a.(*delivery)
	n, ifc, f := d.n, d.ifc, d.f
	d.ifc = nil
	d.f = Frame{}
	n.freeDeliv = append(n.freeDeliv, d)
	n.deliver(ifc, f)
}

// New creates a single-segment (shared bus) network using the kernel's
// clock and randomness.
func New(k *sim.Kernel, params *model.Params) *Network {
	return NewWithTopology(k, params, nil)
}

// NewWithTopology creates a network with the given switched topology.
// A nil topology (or one with zero or one segments) is the classic
// shared bus.
func NewWithTopology(k *sim.Kernel, params *model.Params, topo *Topology) *Network {
	return &Network{
		k:      k,
		params: params,
		topo:   topo,
		cable:  sim.NewResource(k, 1),
	}
}

// Attach creates the interface for a host. Attaching the same ID twice
// is a configuration error.
func (n *Network) Attach(id HostID) (*Interface, error) {
	if id < 0 {
		return nil, fmt.Errorf("netsim: invalid host id %d", id)
	}
	for int(id) >= len(n.ifaces) {
		n.ifaces = append(n.ifaces, nil)
	}
	if n.ifaces[id] != nil {
		return nil, fmt.Errorf("netsim: host %d already attached", id)
	}
	ifc := &Interface{id: id, net: n, rx: sim.NewTypedQueue[Frame](n.k)}
	n.ifaces[id] = ifc
	if n.frozen {
		// Late attach: extend the frozen member tables in place.
		for int(id) >= len(n.hostSeg) {
			n.hostSeg = append(n.hostSeg, 0)
		}
		s := n.topo.segmentOf(id)
		n.hostSeg[id] = int16(s)
		seg := n.segs[s]
		at := len(seg.members)
		for i, m := range seg.members {
			if m > id {
				at = i
				break
			}
		}
		seg.members = append(seg.members, 0)
		copy(seg.members[at+1:], seg.members[at:])
		seg.members[at] = id
	}
	return ifc, nil
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Send transmits one frame, blocking the calling process for medium
// acquisition plus wire time on its own segment. Delivery (or loss)
// happens asynchronously: after the segment latency for local
// destinations, plus the link path's queuing, wire and propagation
// times for remote ones. Frames above the MTU are rejected: the caller
// must fragment.
func (ifc *Interface) Send(p *sim.Proc, f Frame) error {
	seg, tx, err := ifc.prepare(f)
	if seg == nil {
		return err
	}
	seg.medium.Acquire(p)
	p.Sleep(tx)
	ifc.net.afterWire(seg, f, tx)
	return nil
}

// SendThen is Send for a sender with no process. The two waits Send
// parks for become events under the labels the sending process's wakes
// would carry: the medium wait wake, the wire time timer. then(arg) runs
// in the event that ends the wire time, the frame on its way. SendThen
// reports whether it deferred then; false means the frame went (or
// vanished) without a wait, and the caller goes on at once.
func (ifc *Interface) SendThen(f Frame, wake, timer string, then func(any), arg any) (bool, error) {
	seg, tx, err := ifc.prepare(f)
	if seg == nil {
		return false, err
	}
	t := txPool.Get().(*transmit)
	*t = transmit{n: ifc.net, seg: seg, f: f, tx: tx, timer: timer, then: then, arg: arg}
	if !seg.medium.AcquireThen(wake, mediumHeld, t) || t.wire() {
		return true, nil
	}
	t.recycle()
	return false, nil
}

// prepare checks a frame and resolves the segment it leaves by and its
// wire time there. A nil segment means the frame goes no further: err
// says why, or is nil for a crashed host's NIC, which transmits nothing
// without touching the cable.
func (ifc *Interface) prepare(f Frame) (*segment, sim.Duration, error) {
	n := ifc.net
	if f.Size > n.params.MTUPayload {
		return nil, 0, fmt.Errorf("netsim: frame of %d bytes exceeds MTU payload %d", f.Size, n.params.MTUPayload)
	}
	if f.From != ifc.id {
		return nil, 0, fmt.Errorf("netsim: frame From %d sent via interface %d", f.From, ifc.id)
	}
	if n.HostDown(f.From) {
		return nil, 0, nil
	}
	if !n.frozen {
		n.freeze()
	}
	seg := n.segs[n.segOf(f.From)]
	return seg, n.wireTime(f.Size, seg.bps), nil
}

// afterWire is what both senders do once a frame has held its medium
// for its wire time: free the medium, count the frame, let the fault
// plan have it, and schedule its delivery.
func (n *Network) afterWire(seg *segment, f Frame, tx sim.Duration) {
	seg.medium.Release()
	n.stats.FramesSent++
	n.stats.BytesSent += f.Size
	n.stats.BusyTime += tx
	if n.plan != nil && n.sendFaults(&f) {
		return
	}
	n.scheduleDelivery(f)
}

// transmit is a SendThen in progress, the argument of its events, so a
// send with no process builds no closure. The records are pooled across
// networks: a pool per network would cost every small cluster its own.
type transmit struct {
	n     *Network
	seg   *segment
	f     Frame
	tx    sim.Duration
	timer string
	then  func(any)
	arg   any
}

// wire runs on the medium: it schedules the end of the wire time and
// reports true, or, for a zero wire time — Sleep(0) schedules nothing —
// sends the frame at once and reports false.
func (t *transmit) wire() bool {
	if t.tx > 0 {
		t.n.k.AfterNamedArg(t.timer, t.tx, wireDone, t)
		return true
	}
	t.n.afterWire(t.seg, t.f, t.tx)
	return false
}

// mediumHeld is the event that hands a waiting SendThen its medium.
func mediumHeld(a any) {
	if t := a.(*transmit); !t.wire() {
		t.resume()
	}
}

// wireDone is the event that ends a SendThen's wire time.
func wireDone(a any) {
	t := a.(*transmit)
	t.n.afterWire(t.seg, t.f, t.tx)
	t.resume()
}

// resume recycles the record and runs the sender's continuation.
func (t *transmit) resume() {
	then, arg := t.then, t.arg
	t.recycle()
	then(arg)
}

var txPool = sync.Pool{New: func() any { return new(transmit) }}

func (t *transmit) recycle() {
	*t = transmit{}
	txPool.Put(t)
}

// scheduleDelivery queues one named delivery event per destination.
// Broadcast expands here, at send time, into one event per receiver —
// segment by segment along the spanning tree, in host order within each
// segment, so without a chooser the dispatch (seq) order is fixed (a
// map-ordered walk here once made multicast invalidation runs
// nondeterministic). With a chooser each receiver's delivery is an
// independent alternative the model checker can reorder.
func (n *Network) scheduleDelivery(f Frame) {
	src := n.segOf(f.From)
	if f.To == Broadcast {
		if len(n.segs) == 1 {
			n.deliverSegment(n.segs[0], f, n.segs[0].lat)
			return
		}
		n.broadcastTree(src, f)
		return
	}
	if n.cut(f.From, f.To) {
		return
	}
	if int(f.To) >= len(n.ifaces) || n.ifaces[f.To] == nil {
		// Frames to unknown hosts vanish, like on a real wire.
		return
	}
	dst := n.segOf(f.To)
	if dst == src {
		n.scheduleOne(f.To, f, n.segs[dst].lat)
		return
	}
	extra, ok := n.routeDelay(src, dst, f.Size)
	if !ok {
		return
	}
	n.scheduleOne(f.To, f, extra+n.segs[dst].lat)
}

// deliverSegment schedules delivery to every member of a segment (in
// host order) after the given delay, skipping the sender and partition-
// cut receivers.
func (n *Network) deliverSegment(seg *segment, f Frame, delay sim.Duration) {
	for _, id := range seg.members {
		if id == f.From {
			continue
		}
		if n.cut(f.From, id) {
			continue
		}
		n.scheduleOne(id, f, delay)
	}
}

// scheduleOne queues one delivery event from a pooled record.
func (n *Network) scheduleOne(to HostID, f Frame, delay sim.Duration) {
	var d *delivery
	if last := len(n.freeDeliv) - 1; last >= 0 {
		d = n.freeDeliv[last]
		n.freeDeliv[last] = nil
		n.freeDeliv = n.freeDeliv[:last]
	} else {
		d = &delivery{n: n}
	}
	d.ifc = n.ifaces[to]
	d.f = f
	n.k.AfterNamedArg(n.deliveryLabel(to, f.From), delay, deliverPooled, d)
}

// deliver puts a frame on the destination's receive queue unless the
// host's NIC went down while the frame was in flight.
func (n *Network) deliver(ifc *Interface, f Frame) {
	if n.HostDown(ifc.id) {
		n.stats.FramesToDead++
		return
	}
	ifc.rx.Put(f)
}

// deliveryLabel names a delivery event for schedule diagnostics. Labels
// only matter to an installed chooser (the model checker's choice-point
// display); plain runs skip the formatting entirely. Labels are
// interned per (to, from) pair so steady-state delivery does not
// re-format them.
func (n *Network) deliveryLabel(to, from HostID) string {
	if !n.k.HasChooser() {
		return ""
	}
	key := labelKey{to: to, from: from}
	if s, ok := n.labels[key]; ok {
		return s
	}
	if n.labels == nil {
		n.labels = make(map[labelKey]string)
	}
	s := fmt.Sprintf("net:h%d<-h%d", to, from)
	n.labels[key] = s
	return s
}

// OnFrames makes fn, labelled name in schedules, the interface's
// event-driven consumer (sim.TypedQueue.SetSink): after Arm it runs once,
// at the instant of the next delivery, and takes frames with TryRecv.
func (ifc *Interface) OnFrames(name string, fn func()) { ifc.rx.SetSink(name, fn) }

// Arm asks for the OnFrames callback at the next delivery.
func (ifc *Interface) Arm() { ifc.rx.Arm() }

// TryRecv returns the oldest queued frame, if any, without blocking.
func (ifc *Interface) TryRecv() (Frame, bool) { return ifc.rx.TryGet() }

// Recv blocks until a frame arrives and returns it.
func (ifc *Interface) Recv(p *sim.Proc) Frame {
	return ifc.rx.Get(p)
}

// RecvTimeout is Recv with a deadline.
func (ifc *Interface) RecvTimeout(p *sim.Proc, d sim.Duration) (Frame, bool) {
	return ifc.rx.GetTimeout(p, d)
}

// Pending returns the number of frames queued for this interface.
func (ifc *Interface) Pending() int { return ifc.rx.Len() }

// ID returns the interface's host ID.
func (ifc *Interface) ID() HostID { return ifc.id }

// Network returns the network this interface is attached to.
func (ifc *Interface) Network() *Network { return ifc.net }
