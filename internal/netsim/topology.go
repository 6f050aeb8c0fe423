package netsim

// Switched multi-segment topology: named segments (each its own shared
// medium with its own bandwidth/latency profile) joined by point-to-
// point inter-segment links (each with its own profile and per-direction
// cut-through queue). The paper's single 10 Mb/s bus is the one-segment
// degenerate case — a nil or one-segment Topology reproduces it
// bit-identically.
//
// Frames between segments traverse the link path hop by hop. Each hop
// reserves the link in its direction (cut-through: the reservation
// horizon advances by the frame's wire time at the link's bandwidth, so
// back-to-back frames queue deterministically without per-hop events)
// and adds the link's latency. Broadcast and multicast frames expand
// along a per-source spanning tree over the segments: each tree edge
// carries the frame once, so a copyset invalidation costs O(segments
// touched) cross-segment frames instead of O(copyset).

import (
	"fmt"

	"repro/internal/sim"
)

// SegmentSpec describes one shared-medium segment. Zero-valued fields
// inherit the cluster's model.Params (bandwidth, packet latency), so the
// common case — topology shapes traffic, the calibrated cost model
// prices it — needs no numbers here.
type SegmentSpec struct {
	// Name labels the segment for the topology's reader; the
	// simulation does not use it.
	Name string
	// BandwidthBps is the segment's raw bit rate; 0 inherits the model.
	BandwidthBps int64
	// PacketLatency is the fixed delivery latency within the segment;
	// 0 inherits the model.
	PacketLatency sim.Duration
}

// LinkSpec describes one point-to-point link between two segments.
type LinkSpec struct {
	// A and B are the segment indices the link joins.
	A, B int
	// BandwidthBps is the link's bit rate; 0 inherits the model.
	BandwidthBps int64
	// Latency is the link's one-way propagation delay; 0 inherits the
	// model's packet latency.
	Latency sim.Duration
}

// Topology is a switched multi-segment network shape. The zero value
// (and nil) is the classic single shared bus.
type Topology struct {
	// Segments lists the shared-medium segments. Empty means one
	// default segment.
	Segments []SegmentSpec
	// Links joins segments; every segment must be reachable from every
	// other through them.
	Links []LinkSpec
	// HostSegment assigns hosts to segments by host ID; hosts beyond
	// the slice (or with an empty slice) land on segment 0.
	HostSegment []int
}

// segmentOf returns the segment index a host lives on.
func (t *Topology) segmentOf(h HostID) int {
	if t == nil || int(h) >= len(t.HostSegment) || h < 0 {
		return 0
	}
	return t.HostSegment[h]
}

// SegmentCount returns the number of segments (at least 1).
func (t *Topology) SegmentCount() int {
	if t == nil || len(t.Segments) == 0 {
		return 1
	}
	return len(t.Segments)
}

// validate checks segment/link references.
func (t *Topology) validate() error {
	if t == nil {
		return nil
	}
	n := t.SegmentCount()
	for i, l := range t.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("netsim: link %d joins segments %d-%d, have %d segments", i, l.A, l.B, n)
		}
		if l.A == l.B {
			return fmt.Errorf("netsim: link %d joins segment %d to itself", i, l.A)
		}
	}
	for h, s := range t.HostSegment {
		if s < 0 || s >= n {
			return fmt.Errorf("netsim: host %d assigned to segment %d, have %d segments", h, s, n)
		}
	}
	return nil
}

// SwitchedStar builds the standard scaled topology: `segments` leaf
// segments of `hostsPerSegment` hosts each, star-linked through segment
// 0 (which doubles as the first leaf). All profiles inherit the model.
// Host h lands on segment h/hostsPerSegment.
func SwitchedStar(segments, hostsPerSegment int) *Topology {
	if segments < 1 {
		segments = 1
	}
	t := &Topology{
		Segments:    make([]SegmentSpec, segments),
		HostSegment: make([]int, segments*hostsPerSegment),
	}
	for i := range t.Segments {
		t.Segments[i].Name = fmt.Sprintf("seg%d", i)
	}
	for i := 1; i < segments; i++ {
		t.Links = append(t.Links, LinkSpec{A: 0, B: i})
	}
	for h := range t.HostSegment {
		t.HostSegment[h] = h / hostsPerSegment
	}
	return t
}

// segment is the runtime form of a SegmentSpec: resolved profile, its
// own contention resource, and the attached hosts in ID order (the
// deterministic broadcast expansion order).
type segment struct {
	medium  *sim.Resource
	members []HostID
	bps     int64
	lat     sim.Duration
}

// netlink is the runtime form of a LinkSpec. busy holds the per-
// direction cut-through reservation horizon: the virtual time the link
// is next free in that direction. Reserving at send time — instead of
// scheduling per-hop events — keeps cross-segment forwarding
// allocation-free and deterministic.
type netlink struct {
	a, b int
	bps  int64
	lat  sim.Duration
	busy [2]sim.Time // [0]: a→b, [1]: b→a
}

// treeEdge is one edge of a precomputed broadcast spanning tree, in BFS
// order from the source segment (parents always precede children).
type treeEdge struct {
	link          int16
	parent, child int16
}

// freeze resolves the topology into runtime tables: per-segment member
// lists, next-hop routes, and per-source broadcast spanning trees. It
// runs once, at the first transmission; later Attach calls only extend
// the member lists. prepare tests n.frozen itself before calling: this
// function's large frame would cost every fresh process a stack growth
// just to reach an early return.
func (n *Network) freeze() {
	n.frozen = true
	if err := n.topo.validate(); err != nil {
		panic(err)
	}
	nseg := n.topo.SegmentCount()
	n.segs = make([]*segment, nseg)
	for i := range n.segs {
		s := &segment{
			medium: sim.NewResource(n.k, 1),
			bps:    n.params.BandwidthBps,
			lat:    n.params.PacketLatency,
		}
		if n.topo != nil && i < len(n.topo.Segments) {
			spec := n.topo.Segments[i]
			if spec.BandwidthBps != 0 {
				s.bps = spec.BandwidthBps
			}
			if spec.PacketLatency != 0 {
				s.lat = spec.PacketLatency
			}
		}
		n.segs[i] = s
	}
	// The degenerate bus reuses the original cable resource so traffic
	// that started before freeze (none today, but cheap to keep exact)
	// contends against the same semaphore.
	if nseg == 1 && n.cable != nil {
		n.segs[0].medium = n.cable
	}
	if n.topo != nil {
		n.links = make([]*netlink, len(n.topo.Links))
		for i, spec := range n.topo.Links {
			l := &netlink{a: spec.A, b: spec.B, bps: n.params.BandwidthBps, lat: n.params.PacketLatency}
			if spec.BandwidthBps != 0 {
				l.bps = spec.BandwidthBps
			}
			if spec.Latency != 0 {
				l.lat = spec.Latency
			}
			n.links[i] = l
		}
	}
	// Host → segment assignment and per-segment members, in host order.
	n.hostSeg = make([]int16, len(n.ifaces))
	for id, ifc := range n.ifaces {
		if ifc == nil {
			continue
		}
		s := n.topo.segmentOf(HostID(id))
		n.hostSeg[id] = int16(s)
		n.segs[s].members = append(n.segs[s].members, HostID(id))
	}
	if nseg == 1 {
		return
	}
	// BFS from every segment: next-hop link table for unicast routing
	// and the spanning tree (in BFS edge order) for broadcast expansion.
	adj := make([][]int16, nseg) // segment → incident link indices
	for li, l := range n.links {
		adj[l.a] = append(adj[l.a], int16(li))
		adj[l.b] = append(adj[l.b], int16(li))
	}
	n.nextLink = make([][]int16, nseg)
	n.btree = make([][]treeEdge, nseg)
	n.segArrival = make([]sim.Time, nseg)
	for src := 0; src < nseg; src++ {
		next := make([]int16, nseg)
		for i := range next {
			next[i] = -1
		}
		var tree []treeEdge
		// firstHop[s] is the link leaving src toward s.
		firstHop := make([]int16, nseg)
		for i := range firstHop {
			firstHop[i] = -1
		}
		queue := []int16{int16(src)}
		seen := make([]bool, nseg)
		seen[src] = true
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, li := range adj[s] {
				l := n.links[li]
				o := int16(l.b)
				if int(s) == l.b {
					o = int16(l.a)
				}
				if seen[o] {
					continue
				}
				seen[o] = true
				if int(s) == src {
					firstHop[o] = li
				} else {
					firstHop[o] = firstHop[s]
				}
				next[o] = firstHop[o]
				tree = append(tree, treeEdge{link: li, parent: s, child: o})
				queue = append(queue, o)
			}
		}
		for s := 0; s < nseg; s++ {
			if s != src && !seen[s] {
				panic(fmt.Sprintf("netsim: segment %d unreachable from segment %d", s, src))
			}
		}
		n.nextLink[src] = next
		n.btree[src] = tree
	}
}

// segOf returns the (frozen) segment index of an attached host.
func (n *Network) segOf(h HostID) int { return int(n.hostSeg[h]) }

// wireTime prices a frame's occupancy of a medium with bit rate bps,
// including the model's per-packet header overhead. For the default
// rate it is exactly model.Params.WireTime.
func (n *Network) wireTime(payloadBytes int, bps int64) sim.Duration {
	bits := int64(payloadBytes+n.params.HeaderBytes) * 8
	return sim.Duration(bits * int64(sim.Duration(1e9)) / bps)
}

// routeDelay walks the link path from segment src to dst at send time,
// reserving each link cut-through style, and returns the extra delay
// (beyond the destination segment's own latency) a frame of size bytes
// incurs. ok is false if the frame died at a link cut along the way.
func (n *Network) routeDelay(src, dst, size int) (delay sim.Duration, ok bool) {
	now := n.k.Now()
	arrival := now
	s := src
	for s != dst {
		li := n.nextLink[s][dst]
		l := n.links[li]
		if n.linkCutNow(l) {
			n.stats.FramesCut++
			return 0, false
		}
		dir := 0
		next := l.b
		if s == l.b {
			dir = 1
			next = l.a
		}
		start := l.busy[dir]
		if arrival > start {
			start = arrival
		}
		end := start.Add(n.wireTime(size, l.bps))
		l.busy[dir] = end
		arrival = end.Add(l.lat)
		n.stats.CrossSegmentFrames++
		s = next
	}
	return arrival.Sub(now), true
}

// broadcastTree expands a broadcast frame along the source segment's
// spanning tree: each reachable tree edge carries the frame once, then
// every segment delivers to its members at its arrival time plus the
// segment latency. A cut edge silences the whole subtree below it,
// exactly like a real switch losing its uplink.
func (n *Network) broadcastTree(src int, f Frame) {
	now := n.k.Now()
	arr := n.segArrival
	for i := range arr {
		arr[i] = -1
	}
	arr[src] = now
	for _, e := range n.btree[src] {
		if arr[e.parent] < 0 {
			continue // an upstream edge is cut
		}
		l := n.links[e.link]
		if n.linkCutNow(l) {
			n.stats.FramesCut++
			continue
		}
		dir := 0
		if int(e.parent) == l.b {
			dir = 1
		}
		start := l.busy[dir]
		if arr[e.parent] > start {
			start = arr[e.parent]
		}
		end := start.Add(n.wireTime(f.Size, l.bps))
		l.busy[dir] = end
		arr[e.child] = end.Add(l.lat)
		n.stats.CrossSegmentFrames++
	}
	for si, seg := range n.segs {
		if arr[si] >= 0 {
			n.deliverSegment(seg, f, arr[si].Sub(now)+seg.lat)
		}
	}
}
