// Package threads implements Mermaid's thread management module (§2.2):
// thread creation (local or directly on a remote host), termination
// notification and join, and CPU scheduling.
//
// On a Sun, Mermaid supplied a user-level, non-preemptive thread package
// on the single CPU; on a Firefly, Topaz system threads run across up to
// seven processors sharing physical memory. Both are modelled by a CPU
// pool per host: a thread holds a CPU while computing (Compute) and
// releases it while blocked on DSM faults or synchronization, which is
// exactly the scheduling opportunity a non-preemptive user-level package
// gets.
//
// Because threads on remote hosts cannot carry Go closures over the
// simulated wire, applications register entry points in a cluster-wide
// function Registry and pass small scalar arguments — the same contract
// the original system's remote thread creation had.
package threads

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// HostID aliases the network host identifier.
type HostID = remoteop.HostID

// FuncID names a registered thread entry point.
type FuncID uint32

// ThreadID identifies a thread cluster-wide: creator-host in the high
// bits, per-host sequence in the low bits.
type ThreadID uint32

// Host extracts the host a thread runs on.
func (t ThreadID) Host() HostID { return HostID(t >> 20) }

// Func is a thread entry point. It runs on the host's simulated time
// and must do its computation through Thread.Compute.
type Func func(t *Thread, args []uint32)

// Registry is the cluster-wide static table of thread entry points. It
// must be populated identically on every host before the cluster runs.
type Registry struct {
	fns map[FuncID]Func
}

// NewRegistry creates an empty function registry.
func NewRegistry() *Registry { return &Registry{fns: make(map[FuncID]Func)} }

// Register adds an entry point under id, failing on duplicates.
func (r *Registry) Register(id FuncID, fn Func) error {
	if _, dup := r.fns[id]; dup {
		return fmt.Errorf("threads: function %d already registered", id)
	}
	r.fns[id] = fn
	return nil
}

// MustRegister is Register, panicking on error (setup-time convenience).
func (r *Registry) MustRegister(id FuncID, fn Func) {
	if err := r.Register(id, fn); err != nil {
		panic(err)
	}
}

// Thread is the running thread's self handle.
type Thread struct {
	// P is the simulated process the thread runs on; DSM and
	// synchronization calls take it.
	P *sim.Proc

	id  ThreadID
	mgr *Manager
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Host returns the host the thread runs on.
func (t *Thread) Host() HostID { return t.mgr.id }

// Kind returns the machine kind of the thread's host.
func (t *Thread) Kind() arch.Kind { return t.mgr.kind }

// Compute charges d of Firefly-baseline CPU work: it acquires one of the
// host's CPUs, holds it for d scaled by the host's speed factor, and
// releases it. Blocking operations between Compute calls leave the CPU
// free for other threads — non-preemptive scheduling at compute-chunk
// granularity.
func (t *Thread) Compute(d sim.Duration) {
	t.mgr.cpus.Use(t.P, t.mgr.params.Scale(t.mgr.kind, d))
}

// migrateStateBytes models the size of a migrating thread's context
// (registers, stack snapshot) shipped to the destination host.
const migrateStateBytes = 2048

// MigrateTo moves the running thread to another host (§2.2: "Threads
// may be created in an application and later moved to other hosts").
// The thread's context travels as a bulk message; on return the thread
// computes on — and schedules over the CPUs of — the destination.
// Callers holding host-specific handles (DSM modules etc.) must rebind
// them; the mermaid facade's Env does this automatically.
func (t *Thread) MigrateTo(dst HostID) error {
	m := t.mgr
	if dst == m.id {
		return nil
	}
	if m.peers == nil || int(dst) >= len(m.peers) || m.peers[dst] == nil {
		return fmt.Errorf("threads: host %d unknown to host %d (peers not wired)", dst, m.id)
	}
	resp, err := m.ep.Call(t.P, dst, &proto.Message{
		Kind: proto.KindThreadMigrate,
		Args: []uint32{uint32(t.id)},
		Data: make([]byte, migrateStateBytes),
	})
	if err != nil {
		return fmt.Errorf("threads: migrating thread %d to host %d: %w", t.id, dst, err)
	}
	if resp.Arg(0) == 0 {
		return fmt.Errorf("threads: host %d refused migration", dst)
	}
	t.mgr = m.peers[dst]
	return nil
}

// Handle lets the creator await a thread's termination.
type Handle struct {
	// TID is the created thread's identifier.
	TID ThreadID

	done *sim.Event
}

// Join blocks until the thread has finished.
func (h *Handle) Join(p *sim.Proc) { h.done.Wait(p) }

// Manager is one host's thread management module.
type Manager struct {
	k        *sim.Kernel
	id       HostID
	kind     arch.Kind
	ep       *remoteop.Endpoint
	params   *model.Params
	registry *Registry
	cpus     *sim.Resource
	nextSeq  uint32
	// watched maps thread IDs (created from this host) to completion
	// events for Join.
	watched map[ThreadID]*sim.Event
	// peers indexes every host's thread manager, for migration.
	peers []*Manager
}

// SetPeers wires the cluster's thread managers together so threads can
// migrate between hosts. Index must equal HostID.
func (m *Manager) SetPeers(peers []*Manager) { m.peers = peers }

// New creates the thread manager for a host with the given CPU count and
// registers its protocol handlers.
func New(k *sim.Kernel, ep *remoteop.Endpoint, kind arch.Kind, cpus int, params *model.Params, registry *Registry) (*Manager, error) {
	a, err := arch.ByKind(kind)
	if err != nil {
		return nil, err
	}
	if cpus < 1 || cpus > a.MaxCPUs {
		return nil, fmt.Errorf("threads: host %d: %d CPUs outside 1..%d for a %v", ep.ID(), cpus, a.MaxCPUs, kind)
	}
	m := &Manager{
		k:        k,
		id:       ep.ID(),
		kind:     kind,
		ep:       ep,
		params:   params,
		registry: registry,
		cpus:     sim.NewResource(k, cpus),
		watched:  make(map[ThreadID]*sim.Event),
	}
	ep.Handle(proto.KindThreadCreate, m.handleCreate)
	ep.Handle(proto.KindThreadExited, m.handleExited)
	ep.Handle(proto.KindThreadMigrate, m.handleMigrate)
	return m, nil
}

// handleMigrate accepts an inbound thread: install its context (the
// thread's goroutine rebinds itself on the ack) and charge the local
// thread-creation cost.
func (m *Manager) handleMigrate(p *sim.Proc, req *proto.Message) {
	p.Sleep(m.params.ThreadCreate.Of(m.kind))
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindThreadMigrateAck, Args: []uint32{1}})
}

// CPUs returns the host's CPU pool size.
func (m *Manager) CPUs() int { return m.cpus.Capacity() }

// Create starts a thread running the registered function fn on the given
// host — locally or by remote creation (§2.2) — and returns a Handle for
// joining it.
func (m *Manager) Create(p *sim.Proc, host HostID, fn FuncID, args []uint32) (*Handle, error) {
	if _, ok := m.registry.fns[fn]; !ok {
		return nil, fmt.Errorf("threads: function %d not registered", fn)
	}
	if host == m.id {
		p.Sleep(m.params.ThreadCreate.Of(m.kind))
		tid := m.spawn(fn, args, m.id)
		return &Handle{TID: tid, done: m.watched[tid]}, nil
	}
	if len(args) > proto.MaxArgs-1 {
		return nil, fmt.Errorf("threads: %d args exceed the wire limit of %d", len(args), proto.MaxArgs-1)
	}
	wire := append([]uint32{uint32(fn)}, args...)
	resp, err := m.ep.Call(p, host, &proto.Message{Kind: proto.KindThreadCreate, Args: wire})
	if err != nil {
		return nil, fmt.Errorf("threads: creating on host %d: %w", host, err)
	}
	if resp.Arg(1) == 0 {
		return nil, fmt.Errorf("threads: host %d refused creation of function %d", host, fn)
	}
	tid := ThreadID(resp.Arg(0))
	done := m.watched[tid]
	if done == nil {
		// The exit notification may already have arrived (it races the
		// creation reply under retransmission); reuse its event if so.
		done = sim.NewEvent(m.k)
		m.watched[tid] = done
	}
	return &Handle{TID: tid, done: done}, nil
}

// spawn launches the thread body locally, with exit notification to the
// creator host. It returns the new thread's ID.
func (m *Manager) spawn(fn FuncID, args []uint32, creator HostID) ThreadID {
	m.nextSeq++
	tid := ThreadID(uint32(m.id)<<20 | m.nextSeq)
	body := m.registry.fns[fn]
	if creator == m.id {
		m.watched[tid] = sim.NewEvent(m.k)
	}
	m.k.Spawn(fmt.Sprintf("thread-%d.%d", m.id, m.nextSeq), func(p *sim.Proc) {
		t := &Thread{P: p, id: tid, mgr: m}
		body(t, args)
		// The thread may have migrated: notify from wherever it ended.
		end := t.mgr
		if creator == end.id {
			ev := end.watched[tid]
			if ev == nil {
				ev = sim.NewEvent(end.k)
				end.watched[tid] = ev
			}
			ev.Set()
			return
		}
		_, err := end.ep.Call(p, creator, &proto.Message{
			Kind: proto.KindThreadExited,
			Args: []uint32{uint32(tid)},
		})
		unjoined(err)
	})
	return tid
}

// unjoined consumes the error of a thread's exit notification to its
// creator. Only the creator can join the thread, so a creator that is
// dead leaves nobody to tell, and the thread's work is done either way;
// a creator cut off for longer than the call's retransmissions misses
// the exit, and its Join does not return.
func unjoined(error) {}

// handleCreate serves a remote thread-creation request.
func (m *Manager) handleCreate(p *sim.Proc, req *proto.Message) {
	p.Sleep(m.params.ThreadCreate.Of(m.kind))
	fn := FuncID(req.Arg(0))
	if _, ok := m.registry.fns[fn]; !ok {
		m.ep.Reply(p, req, &proto.Message{Kind: proto.KindThreadCreated, Args: []uint32{0, 0}})
		return
	}
	var args []uint32
	if len(req.Args) > 1 {
		args = req.Args[1:]
	}
	tid := m.spawn(fn, args, HostID(req.From))
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindThreadCreated, Args: []uint32{uint32(tid), 1}})
}

// handleExited records a remote thread's termination and releases
// joiners.
func (m *Manager) handleExited(p *sim.Proc, req *proto.Message) {
	tid := ThreadID(req.Arg(0))
	done := m.watched[tid]
	if done == nil {
		// Exit raced ahead of the creation reply: remember it as a
		// pre-set event so a later Join returns immediately.
		done = sim.NewEvent(m.k)
		m.watched[tid] = done
	}
	done.Set()
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindThreadExitedAck, Args: []uint32{uint32(tid)}})
}
