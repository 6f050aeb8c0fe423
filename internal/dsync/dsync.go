// Package dsync implements Mermaid's distributed synchronization
// facility (§2.2): P and V semaphore operations, events, and barriers.
//
// The paper implemented these as a separate facility rather than with
// atomic instructions on shared memory locations, because the latter
// would ping-pong whole DSM pages between hosts. Each primitive has a
// fixed manager host holding its state; operations from other hosts are
// request–response messages, and operations that may block (P, event
// wait, barrier arrival) use patient calls whose retransmissions are
// absorbed by the duplicate-request cache.
//
// Primitives are defined identically on every host before the cluster
// runs (a static table, like the conversion registry); only the manager
// host's copy carries state. The three families share one record, one
// table of the five operations and one manager rule (apply), so an
// operation is queued, granted and called for in one place each.
package dsync

import (
	"encoding/binary"
	"fmt"
	"hash"
	"slices"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// HostID aliases the network host identifier.
type HostID = remoteop.HostID

// family is a kind of primitive, numbered in the state hash's section
// order.
type family uint8

const (
	semaphore family = iota
	event
	barrier
)

// families names each family (errors and panics say it) and gives the
// kinds of its requests and replies.
var families = [...]struct {
	name       string
	req, reply proto.Kind
}{
	semaphore: {"semaphore", proto.KindSemOp, proto.KindSemReply},
	event:     {"event", proto.KindEventOp, proto.KindEventReply},
	barrier:   {"barrier", proto.KindBarrierOp, proto.KindBarrierReply},
}

// op is one of the five operations.
type op uint8

const (
	opP op = iota
	opV
	opWait
	opSet
	opArrive
)

// ops is the operation table. code is the operation's word in a
// request's Args[1]; a barrier request carries only the id, so its one
// operation has code 0. An operation that acquires may wait for a grant
// and hands the grant's payload to the model; one that releases first
// runs the model's release and ships its payload (relFmt names the
// operation in that step's error).
var ops = [...]struct {
	fam                family
	code               uint32
	name, relFmt       string
	acquires, releases bool
}{
	opP:      {semaphore, 1, "P", "", true, false},
	opV:      {semaphore, 2, "V", "V(%d)", false, true},
	opWait:   {event, 1, "EventWait", "", true, false},
	opSet:    {event, 2, "EventSet", "EventSet(%d)", false, true},
	opArrive: {barrier, 0, "BarrierArrive", "barrier %d", true, true},
}

// opOf decodes the operation a request asks for.
func opOf(req *proto.Message) (op, bool) {
	for o, d := range ops {
		if families[d.fam].req == req.Kind && d.code == req.Arg(1) {
			return op(o), true
		}
	}
	return 0, false
}

// SyncModel is the consistency model's hook into synchronization
// (implemented by the DSM release-consistency model, attached by the
// cluster). A release ships an opaque payload (vector timestamp plus
// write notices) that rides the primitive's messages; the manager folds
// payloads together with MergePayload and every grant hands the merged
// payload to the acquirer. With no model attached (every sequentially
// consistent policy) no payloads exist and the message streams are
// bit-identical to before this hook existed.
type SyncModel interface {
	// ReleasePayload runs the model's release action (push pending
	// updates) and returns the payload to attach to the releasing
	// operation.
	ReleasePayload(p *sim.Proc) ([]byte, error)
	// AcquirePayload runs the model's acquire action with the payload
	// delivered by the grant (possibly nil).
	AcquirePayload(p *sim.Proc, data []byte) error
	// MergePayload folds two payloads (either may be nil). It is pure
	// and always returns a freshly allocated slice, never aliasing its
	// arguments — incoming payloads alias pooled wire buffers.
	MergePayload(a, b []byte) []byte
}

// prim is one primitive. Every host holds its manager; only the
// manager's copy changes. n is the semaphore's count, the event's set
// flag (0 or 1) or the barrier's arrivals this round; size is the
// barrier's participant count.
//
// The payload accumulation is monotone: vector timestamps and write
// notices only grow, so it is never reset — not even when a barrier
// recycles — and re-merging a retransmitted payload is a no-op.
type prim struct {
	manager HostID
	n, size int
	payload []byte
	waiters []grantee
}

// grantee is a parked participant to release later: a remote request
// awaiting its reply, or (req nil) a local process.
type grantee struct {
	req *proto.Message
	w   sim.Waiter
	got *grant
}

// grant is where a local grantee's wake-up lands.
type grant struct {
	done    bool
	payload []byte
}

// Service is one host's synchronization module.
type Service struct {
	k      *sim.Kernel
	id     HostID
	kind   arch.Kind
	ep     *remoteop.Endpoint
	params *model.Params

	prims [len(families)]map[uint32]*prim

	model SyncModel
}

// AttachModel binds the consistency model's sync hooks. The cluster
// attaches the same model implementation on every host (or none).
func (s *Service) AttachModel(m SyncModel) { s.model = m }

// New creates a host's synchronization service and registers its one
// handler for the three request kinds.
func New(k *sim.Kernel, ep *remoteop.Endpoint, kind arch.Kind, params *model.Params) *Service {
	s := &Service{k: k, id: ep.ID(), kind: kind, ep: ep, params: params}
	for f := range s.prims {
		s.prims[f] = make(map[uint32]*prim)
		ep.Handle(families[f].req, s.handle)
	}
	return s
}

// DefineSemaphore declares semaphore id with its manager host and
// initial count. Every host must make identical definitions at setup.
func (s *Service) DefineSemaphore(id uint32, manager HostID, initial int) {
	s.prims[semaphore][id] = &prim{manager: manager, n: initial}
}

// DefineEvent declares event id with its manager host.
func (s *Service) DefineEvent(id uint32, manager HostID) {
	s.prims[event][id] = &prim{manager: manager}
}

// DefineBarrier declares barrier id for n participants.
func (s *Service) DefineBarrier(id uint32, manager HostID, n int) {
	s.prims[barrier][id] = &prim{manager: manager, size: n}
}

// WriteStateHash folds this host's synchronization state — semaphore
// counts, event flags, barrier arrival counts, and waiter-queue lengths
// — into h in a canonical order. The model checker (internal/mc)
// combines it with the DSM modules' state hashes into the fingerprint
// its schedule-space pruning keys on; without it, two schedules leaving
// identical page tables but different semaphore states would wrongly
// merge.
func (s *Service) WriteStateHash(h hash.Hash) {
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	put(uint32(s.id))
	for f, m := range s.prims {
		if f > 0 {
			put(0xffff_ffff - uint32(f-1)) // section separator
		}
		for _, id := range sim.SortedKeys(m) {
			pr := m[id]
			if pr.manager != s.id {
				continue
			}
			put(id)
			put(uint32(pr.n))
			put(uint32(len(pr.waiters)))
			// Accumulated release payloads are folded only when
			// present, so the byte stream of every payload-free
			// (sequentially consistent) run is unchanged by the
			// consistency-model hook.
			if len(pr.payload) > 0 {
				put(uint32(len(pr.payload)))
				h.Write(pr.payload)
			}
		}
	}
}

// apply is the manager rule: it performs o on pr and reports whether
// the caller passes now. A caller that does not pass joins pr.waiters
// until a later operation grants it.
func (s *Service) apply(p *sim.Proc, o op, pr *prim) (passes bool) {
	switch o {
	case opP:
		if pr.n <= 0 {
			return false
		}
		pr.n--
	case opV:
		if len(pr.waiters) == 0 {
			pr.n++
			break
		}
		g := pr.waiters[0]
		pr.waiters = pr.waiters[1:]
		s.release(p, g, families[semaphore].reply, pr.payload)
	case opWait:
		return pr.n == 1
	case opSet:
		pr.n = 1
		s.releaseAll(p, pr, families[event].reply)
	case opArrive:
		pr.n++
		if pr.n < pr.size {
			return false
		}
		pr.n = 0
		s.releaseAll(p, pr, families[barrier].reply)
	}
	return true
}

// releaseAll grants the current payload to every waiter queued when it
// starts, oldest first. A remote grant yields for its send, so a
// barrier arrival for the next round may queue meanwhile: it stays. A
// grant loop that overlapped this one (two sets of one event) may have
// emptied the queue already.
func (s *Service) releaseAll(p *sim.Proc, pr *prim, kind proto.Kind) {
	granted := pr.waiters
	for _, g := range granted {
		s.release(p, g, kind, pr.payload)
	}
	pr.waiters = slices.Clone(pr.waiters[min(len(granted), len(pr.waiters)):])
}

// release unblocks a grantee, delivering the granting payload: wake a
// local process or answer the remote request.
func (s *Service) release(p *sim.Proc, g grantee, kind proto.Kind, payload []byte) {
	if g.req == nil {
		g.got.done, g.got.payload = true, payload
		s.k.Wake(g.w, sim.WakeSignal)
		return
	}
	s.ep.Reply(p, g.req, &proto.Message{Kind: kind, Data: payload})
}

// queued reports whether the same remote request (by origin and request
// ID) is already waiting — a retransmission that outlived the
// endpoint's duplicate cache must not be applied a second time.
func queued(list []grantee, req *proto.Message) bool {
	for _, g := range list {
		if g.req != nil && g.req.From == req.From && g.req.ReqID == req.ReqID {
			return true
		}
	}
	return false
}

// mergePayload folds an incoming release payload into a primitive's
// accumulated payload. Without a model payloads do not exist and the
// accumulator stays nil.
func (s *Service) mergePayload(cur *[]byte, in []byte) {
	if s.model == nil || len(in) == 0 {
		return
	}
	*cur = s.model.MergePayload(*cur, in)
}

// acquired runs the model's acquire action after a grant delivered
// payload (a no-op without a model).
func (s *Service) acquired(p *sim.Proc, payload []byte) error {
	if s.model == nil {
		return nil
	}
	return s.model.AcquirePayload(p, payload)
}

// do performs o on primitive id for process p: the model's release if
// o releases, then the manager rule — applied here when this host is
// the manager, parking p while it must wait, or else asked of the
// manager by a call that, for an acquiring operation, waits as long as
// the manager lives.
func (s *Service) do(p *sim.Proc, o op, id uint32) error {
	d, f := &ops[o], &families[ops[o].fam]
	pr := s.prims[d.fam][id]
	if pr == nil {
		panic(fmt.Sprintf("dsync: %s %d not defined", f.name, id))
	}
	var data []byte
	if d.releases && s.model != nil {
		var err error
		if data, err = s.model.ReleasePayload(p); err != nil {
			return fmt.Errorf("release before %s: %w", fmt.Sprintf(d.relFmt, id), err)
		}
	}
	if pr.manager == s.id {
		s.mergePayload(&pr.payload, data)
		if s.apply(p, o, pr) {
			if !d.acquires {
				return nil
			}
			return s.acquired(p, pr.payload)
		}
		g := &grant{}
		pr.waiters = append(pr.waiters, grantee{w: p.PrepareWait(), got: g})
		for !g.done {
			p.Park()
		}
		return s.acquired(p, g.payload)
	}
	args := []uint32{id, d.code}
	if d.code == 0 {
		args = args[:1]
	}
	call := s.ep.Call
	if d.acquires {
		call = s.ep.CallBlocking
	}
	resp, err := call(p, pr.manager, &proto.Message{Kind: f.req, Args: args, Data: data})
	if err != nil {
		return fmt.Errorf("%s %d died with its manager %d: %w", f.name, id, pr.manager, err)
	}
	if !d.acquires {
		return nil
	}
	err = s.acquired(p, resp.Data)
	if buf := resp.TakeWire(); buf != nil {
		bufpool.Put(buf)
	}
	return err
}

// handle serves the three request kinds at the manager. It drops a
// retransmission of a request already queued, folds the payload in,
// recycles the wire buffer and applies the operation, then answers —
// an acquiring operation with the primitive's payload — or queues the
// request for a later grant.
func (s *Service) handle(p *sim.Proc, req *proto.Message) {
	if s.ep.Crashed() {
		p.Exit()
	}
	p.Sleep(s.params.SyncProcess.Of(s.kind))
	o, ok := opOf(req)
	if !ok {
		return
	}
	d := &ops[o]
	pr := s.prims[d.fam][req.Arg(0)]
	if pr == nil || pr.manager != s.id || queued(pr.waiters, req) {
		return // undefined here (the requester is misconfigured and times out), or a retransmission
	}
	s.mergePayload(&pr.payload, req.Data)
	if buf := req.TakeWire(); buf != nil {
		bufpool.Put(buf)
	}
	if !s.apply(p, o, pr) {
		pr.waiters = append(pr.waiters, grantee{req: req})
		return
	}
	resp := &proto.Message{Kind: families[d.fam].reply}
	if d.acquires {
		resp.Data = pr.payload
	}
	s.ep.Reply(p, req, resp)
}

// P acquires one unit of semaphore id, blocking until granted.
func (s *Service) P(p *sim.Proc, id uint32) { s.must(p, opP, id) }

// PE is P returning an error when the semaphore's manager host has
// crashed (the primitive is gone with it) instead of blocking forever.
func (s *Service) PE(p *sim.Proc, id uint32) error { return s.do(p, opP, id) }

// V releases one unit of semaphore id, waking the oldest waiter.
func (s *Service) V(p *sim.Proc, id uint32) { s.must(p, opV, id) }

// VE is V returning crash errors.
func (s *Service) VE(p *sim.Proc, id uint32) error { return s.do(p, opV, id) }

// EventWait blocks until event id is set.
func (s *Service) EventWait(p *sim.Proc, id uint32) { s.must(p, opWait, id) }

// EventWaitE is EventWait returning crash errors.
func (s *Service) EventWaitE(p *sim.Proc, id uint32) error { return s.do(p, opWait, id) }

// EventSet sets event id, releasing all waiters.
func (s *Service) EventSet(p *sim.Proc, id uint32) { s.must(p, opSet, id) }

// EventSetE is EventSet returning crash errors.
func (s *Service) EventSetE(p *sim.Proc, id uint32) error { return s.do(p, opSet, id) }

// BarrierArrive announces arrival at barrier id and blocks until all
// participants have arrived; the barrier then resets for reuse.
func (s *Service) BarrierArrive(p *sim.Proc, id uint32) { s.must(p, opArrive, id) }

// BarrierArriveE is BarrierArrive returning crash errors.
func (s *Service) BarrierArriveE(p *sim.Proc, id uint32) error { return s.do(p, opArrive, id) }

// must keeps the plain primitives' historical contract: without failure
// detection a synchronization failure is a simulation bug.
func (s *Service) must(p *sim.Proc, o op, id uint32) {
	if err := s.do(p, o, id); err != nil {
		panic(fmt.Sprintf("dsync: %s(%d): %v", ops[o].name, id, err))
	}
}
