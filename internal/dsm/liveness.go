package dsm

// Crash-stop failure detection: virtual-time heartbeats plus timeout
// escalation from the remote-operation layer, folded into per-host
// suspicion state. Every host broadcasts a heartbeat each
// HeartbeatInterval; a host silent for SuspicionTimeout becomes a
// suspect, and one silent for twice that is declared dead — at which
// point registered death callbacks fire exactly once (recovery, partial
// reassembly cleanup) and the endpoint's peer check starts failing
// calls to the corpse fast with ErrPeerDead.
//
// The detector only exists when the cluster enables failure detection;
// no-fault runs spawn no heartbeat processes, draw no randomness, and
// stay bit-identical to builds without this file.

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// HostState is the detector's opinion of one host.
type HostState int

const (
	// StateAlive means heartbeats are arriving on schedule.
	StateAlive HostState = iota
	// StateSuspect means the host has been silent past SuspicionTimeout
	// or a remote call to it timed out.
	StateSuspect
	// StateDead means the host has been declared crashed (permanent:
	// crash-stop hosts do not return).
	StateDead
)

// String names the state.
func (s HostState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("HostState(%d)", int(s))
	}
}

// Detector is one host's failure detector.
type Detector struct {
	k      *sim.Kernel
	ep     *remoteop.Endpoint
	params *model.Params
	self   HostID

	lastHeard []sim.Time
	state     []HostState
	onDeath   []func(h HostID)
}

// NewDetector creates the failure detector for one host and wires it
// into the endpoint: a heartbeat handler, the peer-death fail-fast
// predicate, and the call-timeout escalation hook. Call Start (after
// the cluster is assembled) to begin the heartbeat and monitor
// processes.
func NewDetector(k *sim.Kernel, ep *remoteop.Endpoint, params *model.Params, hosts int) *Detector {
	d := &Detector{
		k:         k,
		ep:        ep,
		params:    params,
		self:      ep.ID(),
		lastHeard: make([]sim.Time, hosts),
		state:     make([]HostState, hosts),
	}
	for h := range d.lastHeard {
		d.lastHeard[h] = k.Now()
	}
	ep.HandleEvent(proto.KindHeartbeat, remoteop.EventHandler{Reply: d.handleHeartbeat})
	ep.SetPeerCheck(d.Dead)
	ep.SetTimeoutHook(d.Escalate)
	return d
}

// Start spawns the heartbeat broadcaster and the silence monitor.
func (d *Detector) Start() {
	d.k.Spawn(fmt.Sprintf("heartbeat-%d", d.self), d.heartbeatLoop)
	d.k.Spawn(fmt.Sprintf("monitor-%d", d.self), d.monitorLoop)
}

// OnDeath registers a callback fired exactly once when a host is
// declared dead. Callbacks must not block (spawn a process for work
// that does).
func (d *Detector) OnDeath(fn func(h HostID)) { d.onDeath = append(d.onDeath, fn) }

// Dead reports whether h has been declared crashed. A nil detector (a
// host run without failure detection) declares no host dead.
func (d *Detector) Dead(h HostID) bool {
	return d != nil && int(h) >= 0 && int(h) < len(d.state) && d.state[h] == StateDead
}

// State returns the detector's opinion of h.
func (d *Detector) State(h HostID) HostState { return d.state[h] }

// Escalate records negative evidence against h: a remote call to it
// burned a full request timeout without an answer. An alive host
// becomes a suspect immediately; a suspect already silent past the
// death threshold is declared dead without waiting for the next
// monitor tick.
func (d *Detector) Escalate(h HostID) {
	if d.ep.Crashed() || int(h) < 0 || int(h) >= len(d.state) || h == d.self {
		return
	}
	switch d.state[h] {
	case StateDead:
		return
	case StateAlive:
		d.state[h] = StateSuspect
	case StateSuspect:
		// Already under suspicion; the silence check below decides.
	}
	if d.silence(h) >= 2*d.params.SuspicionTimeout {
		d.declareDead(h)
	}
}

// DeclareDead forces an immediate death declaration (tests and the
// chaos harness use it to skip the detection latency).
func (d *Detector) DeclareDead(h HostID) {
	if d.ep.Crashed() || int(h) < 0 || int(h) >= len(d.state) || h == d.self {
		return
	}
	d.declareDead(h)
}

// silence is how long h has been quiet.
func (d *Detector) silence(h HostID) sim.Duration {
	return d.k.Now().Sub(d.lastHeard[h])
}

func (d *Detector) declareDead(h HostID) {
	if d.state[h] == StateDead {
		return
	}
	d.state[h] = StateDead
	for _, fn := range d.onDeath {
		fn(h)
	}
}

// heartbeatLoop broadcasts one liveness frame per HeartbeatInterval.
func (d *Detector) heartbeatLoop(p *sim.Proc) {
	for {
		if d.ep.Crashed() {
			p.Exit()
		}
		d.ep.SendOneWay(p, remoteop.Broadcast, &proto.Message{Kind: proto.KindHeartbeat})
		p.Sleep(d.params.HeartbeatInterval)
	}
}

// monitorLoop periodically audits every peer's silence.
func (d *Detector) monitorLoop(p *sim.Proc) {
	for {
		if d.ep.Crashed() {
			p.Exit()
		}
		p.Sleep(d.params.HeartbeatInterval)
		for h := range d.state {
			hid := HostID(h)
			if hid == d.self || d.state[h] == StateDead {
				continue
			}
			s := d.silence(hid)
			if s >= 2*d.params.SuspicionTimeout {
				d.declareDead(hid)
			} else if s >= d.params.SuspicionTimeout && d.state[h] == StateAlive {
				d.state[h] = StateSuspect
			}
		}
	}
}

// handleHeartbeat records a peer's liveness broadcast. Heartbeats are
// one-way: no reply, no acknowledgement.
func (d *Detector) handleHeartbeat(req *proto.Message) *proto.Message {
	h := HostID(req.From)
	if d.ep.Crashed() || int(h) < 0 || int(h) >= len(d.state) || d.state[h] == StateDead {
		return nil // crash-stop: the dead neither listen nor come back
	}
	d.lastHeard[h] = d.k.Now()
	d.state[h] = StateAlive
	return nil
}
