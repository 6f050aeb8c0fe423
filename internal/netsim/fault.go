package netsim

// Fault fabric: a scripted, virtual-time fault plan layered under the
// shared-bus model. Every fault is a pure function of the plan, the
// virtual clock, and the kernel's seeded random source, so any faulty
// run replays bit-identically from its seed — and a nil plan leaves the
// send/delivery path exactly as it was (no extra random draws, no extra
// events), keeping existing no-fault runs bit-identical too.
//
// The fabric models what a real segment does to frames: burst loss
// windows, partitions that cut one host group off from the rest,
// duplicated deliveries, payload corruption in flight, and host
// crash/restart (a down host's NIC neither transmits nor receives).
// Payloads are opaque references owned by the remote-operation layer,
// so duplication and corruption go through caller-registered hooks that
// know how to deep-copy and damage a payload without aliasing pooled
// buffers.
//
// Every random frame fault is decided at one point, sendFaults, once
// per transmitted frame: that is where a recorded "exactly these frames
// lost" replay hooks in. Cuts, partitions and down NICs draw nothing.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Window is a half-open virtual-time interval [From, Until). Until 0
// means "until the end of the run".
type Window struct {
	From  sim.Time
	Until sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool {
	return t >= w.From && (w.Until == 0 || t < w.Until)
}

// Burst is a fault-rate window: while open, each frame is subjected to
// the fault with probability Rate.
type Burst struct {
	Window
	Rate float64
}

// Partition cuts the hosts in Group off from every host outside it
// while the window is open. Frames crossing the cut, in either
// direction, are lost; frames within a side pass normally.
type Partition struct {
	Window
	Group []HostID
}

// separates reports whether a and b are on opposite sides of the cut.
func (pt *Partition) separates(a, b HostID) bool {
	return pt.inGroup(a) != pt.inGroup(b)
}

func (pt *Partition) inGroup(h HostID) bool {
	for _, g := range pt.Group {
		if g == h {
			return true
		}
	}
	return false
}

// CrashEvent scripts a host crash at a virtual time. The fabric only
// records the schedule; applying a crash (downing the NIC, discarding
// the host's memory, unwinding its threads) is the cluster layer's job.
type CrashEvent struct {
	At   sim.Time
	Host HostID
}

// LinkCut severs the inter-segment link between segments A and B (in
// both directions) while the window is open — a switched topology's
// native partition: every host behind the cut loses every host beyond
// it, with no host list to enumerate.
type LinkCut struct {
	Window
	A, B int
}

// FaultPlan scripts every fault for one run. The zero value (and a nil
// plan) injects nothing.
type FaultPlan struct {
	// Loss windows drop frames at send time with the window's rate —
	// the network's only random loss (a whole-run window is uniform
	// loss).
	Loss []Burst
	// Corrupt windows damage a frame's payload in flight (through the
	// registered corrupt hook), so the receiver's checksum — not luck —
	// decides whether the damage is caught.
	Corrupt []Burst
	// Duplicate windows deliver a second, independent copy of the frame
	// (through the registered clone hook).
	Duplicate []Burst
	// Partitions cut host groups off for their windows.
	Partitions []Partition
	// LinkCuts sever inter-segment links for their windows (switched
	// topologies only; ignored on a one-segment bus).
	LinkCuts []LinkCut
	// Crashes scripts host crash times for the cluster layer.
	Crashes []CrashEvent
}

// rateAt sums the rates of all open windows, capped at 1.
func rateAt(bursts []Burst, t sim.Time) float64 {
	r := 0.0
	for i := range bursts {
		if bursts[i].Contains(t) {
			r += bursts[i].Rate
		}
	}
	if r > 1 {
		r = 1
	}
	return r
}

// cutAt reports whether any open partition separates a and b.
func (fp *FaultPlan) cutAt(t sim.Time, a, b HostID) bool {
	for i := range fp.Partitions {
		if fp.Partitions[i].Contains(t) && fp.Partitions[i].separates(a, b) {
			return true
		}
	}
	return false
}

// Validate checks the plan against a network of hosts hosts on
// segments segments: every crash host and partition member exists,
// every link cut joins existing segments, every rate is a probability,
// and no window closes before it opens. A nil plan is valid.
func (fp *FaultPlan) Validate(hosts, segments int) error {
	if fp == nil {
		return nil
	}
	var windows []Window
	var named []HostID
	for _, b := range slices.Concat(fp.Loss, fp.Corrupt, fp.Duplicate) {
		if !(b.Rate >= 0 && b.Rate <= 1) {
			return fmt.Errorf("netsim: fault rate %v outside [0, 1]", b.Rate)
		}
		windows = append(windows, b.Window)
	}
	for _, pt := range fp.Partitions {
		windows = append(windows, pt.Window)
		named = append(named, pt.Group...)
	}
	for _, c := range fp.LinkCuts {
		if c.A < 0 || c.A >= segments || c.B < 0 || c.B >= segments {
			return fmt.Errorf("netsim: link cut joins segments %d-%d, have %d segments", c.A, c.B, segments)
		}
		windows = append(windows, c.Window)
	}
	for _, ce := range fp.Crashes {
		named = append(named, ce.Host)
	}
	for _, h := range named {
		if h < 0 || int(h) >= hosts {
			return fmt.Errorf("netsim: fault plan names host %d, have %d hosts", h, hosts)
		}
	}
	for _, w := range windows {
		if w.Until != 0 && w.Until < w.From {
			return fmt.Errorf("netsim: fault window [%v, %v) closes before it opens", w.From, w.Until)
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (fp *FaultPlan) Empty() bool {
	return fp == nil ||
		(len(fp.Loss) == 0 && len(fp.Corrupt) == 0 && len(fp.Duplicate) == 0 &&
			len(fp.Partitions) == 0 && len(fp.LinkCuts) == 0 && len(fp.Crashes) == 0)
}

// SetFaultPlan installs (or, with nil, removes) the fault plan. It must
// be set before traffic starts.
func (n *Network) SetFaultPlan(fp *FaultPlan) { n.plan = fp }

// FaultPlan returns the installed fault plan (nil when none is).
func (n *Network) FaultPlan() *FaultPlan { return n.plan }

// SetPayloadHooks registers the payload deep-copy and corruption hooks
// the duplicate/corrupt faults need. clone must return an independent
// copy safe to deliver twice (no shared pooled buffers); corrupt must
// return a copy with wire bytes damaged, drawing any randomness it
// needs from r. The remote-operation layer registers both.
func (n *Network) SetPayloadHooks(clone func(payload any) any, corrupt func(payload any, r *rand.Rand) any) {
	n.clone = clone
	n.corruptFn = corrupt
}

// SetHostDown marks a host's NIC down (crashed) or back up (restarted).
// A down host transmits nothing and frames addressed or broadcast to it
// vanish at delivery time, like frames to a powered-off machine.
func (n *Network) SetHostDown(h HostID, down bool) {
	for int(h) >= len(n.down) {
		n.down = append(n.down, false)
	}
	n.down[h] = down
}

// HostDown reports whether the host's NIC is currently down.
func (n *Network) HostDown(h HostID) bool { return int(h) < len(n.down) && n.down[h] }

// linkCutNow reports whether the fault plan currently severs link l.
func (n *Network) linkCutNow(l *netlink) bool {
	if n.plan == nil || len(n.plan.LinkCuts) == 0 {
		return false
	}
	now := n.k.Now()
	for i := range n.plan.LinkCuts {
		c := &n.plan.LinkCuts[i]
		if !c.Contains(now) {
			continue
		}
		if (c.A == l.a && c.B == l.b) || (c.A == l.b && c.B == l.a) {
			return true
		}
	}
	return false
}

// sendFaults is the one point where a frame that already paid its wire
// time is lost, corrupted or duplicated at random. It reports whether
// the frame was lost; it may mutate f's payload (corruption) or
// schedule an extra delivery (duplication). Only called with a non-nil
// plan, so no-fault runs draw no randomness.
func (n *Network) sendFaults(f *Frame) (lost bool) {
	now := n.k.Now()
	if r := rateAt(n.plan.Loss, now); r > 0 && n.k.Rand().Float64() < r {
		n.stats.FramesDropped++
		return true
	}
	if r := rateAt(n.plan.Corrupt, now); r > 0 && n.corruptFn != nil && n.k.Rand().Float64() < r {
		f.Payload = n.corruptFn(f.Payload, n.k.Rand())
		n.stats.FramesCorrupted++
	}
	if r := rateAt(n.plan.Duplicate, now); r > 0 && n.clone != nil && n.k.Rand().Float64() < r {
		dup := *f
		dup.Payload = n.clone(f.Payload)
		n.stats.FramesDuplicated++
		n.scheduleDelivery(dup)
	}
	return false
}

// cut reports whether the partition plan blocks a frame from from to to
// right now, counting it if so.
func (n *Network) cut(from, to HostID) bool {
	if n.plan == nil {
		return false
	}
	if n.plan.cutAt(n.k.Now(), from, to) {
		n.stats.FramesCut++
		return true
	}
	return false
}
