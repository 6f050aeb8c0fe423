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
// (implemented by the DSM release-consistency engine, attached by the
// cluster). A release ships an opaque payload (vector timestamp, write
// notices and the diffs that fit) that rides the primitive's messages.
// The model on the primitive's manager host owns what the releases
// accumulate: dsync hands it each release's bytes and asks it what
// each grant carries. With no model attached (every sequentially
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
	// Released folds a non-empty release payload into what primitive
	// prim, managed on this host, has accumulated. data may alias a
	// pooled wire buffer: the model copies what it keeps. The
	// accumulation only grows, so a barrier's next round keeps it and
	// refolding a retransmitted release changes nothing.
	Released(prim uint64, data []byte)
	// Grant returns what a grant of primitive prim to host to carries:
	// nil before prim's first release, and to this host itself the
	// whole accumulation, which the state hash folds too. A grant to a
	// remote host may record what it shipped, so it is asked once per
	// grant sent; a retransmission resends the reply cache's copy. Its
	// result must not be changed later.
	Grant(prim uint64, to HostID) []byte
}

// prim is one primitive. Every host holds its manager; only the
// manager's copy changes. key names it to the model; n is the
// semaphore's count, the event's set flag (0 or 1) or the barrier's
// arrivals this round; size is the barrier's participant count.
type prim struct {
	key     uint64
	manager HostID
	n, size int
	waiters []grantee
}

// primKey is the model's name for primitive id of family f.
func primKey(f family, id uint32) uint64 { return uint64(f)<<32 | uint64(id) }

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
	s.prims[semaphore][id] = &prim{key: primKey(semaphore, id), manager: manager, n: initial}
}

// DefineEvent declares event id with its manager host.
func (s *Service) DefineEvent(id uint32, manager HostID) {
	s.prims[event][id] = &prim{key: primKey(event, id), manager: manager}
}

// DefineBarrier declares barrier id for n participants.
func (s *Service) DefineBarrier(id uint32, manager HostID, n int) {
	s.prims[barrier][id] = &prim{key: primKey(barrier, id), manager: manager, size: n}
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
			// The accumulated release payload, as a local grant
			// would carry it, is folded only when present, so the
			// byte stream of every payload-free (sequentially
			// consistent) run is unchanged by the model hook.
			if data := s.carried(pr, s.id); len(data) > 0 {
				put(uint32(len(data)))
				h.Write(data)
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
		s.release(p, g, families[semaphore].reply, pr)
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

// releaseAll grants pr to every waiter queued when it starts, oldest
// first, each grant carrying what the model answers at its turn. A
// remote grant yields for its send, so a barrier arrival for the next
// round may queue meanwhile: it stays. A grant loop that overlapped this
// one (two sets of one event) may have emptied the queue already.
func (s *Service) releaseAll(p *sim.Proc, pr *prim, kind proto.Kind) {
	granted := pr.waiters
	for _, g := range granted {
		s.release(p, g, kind, pr)
	}
	pr.waiters = slices.Clone(pr.waiters[min(len(granted), len(pr.waiters)):])
}

// release unblocks a grantee of pr, delivering what its grant
// carries: wake a local process or answer the remote request.
func (s *Service) release(p *sim.Proc, g grantee, kind proto.Kind, pr *prim) {
	if g.req == nil {
		g.got.done, g.got.payload = true, s.carried(pr, s.id)
		s.k.Wake(g.w, sim.WakeSignal)
		return
	}
	s.ep.Reply(p, g.req, &proto.Message{Kind: kind, Data: s.carried(pr, HostID(g.req.From))})
}

// carried is what a grant of pr to host to carries: the model's
// answer, nothing without a model.
func (s *Service) carried(pr *prim, to HostID) []byte {
	if s.model == nil {
		return nil
	}
	return s.model.Grant(pr.key, to)
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

// released hands a release payload of pr to the model. Without a
// model payloads do not exist.
func (s *Service) released(pr *prim, data []byte) {
	if s.model != nil && len(data) > 0 {
		s.model.Released(pr.key, data)
	}
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
		return fmt.Errorf("dsync: %s %d not defined", f.name, id)
	}
	var data []byte
	if d.releases && s.model != nil {
		var err error
		if data, err = s.model.ReleasePayload(p); err != nil {
			return fmt.Errorf("release before %s: %w", fmt.Sprintf(d.relFmt, id), err)
		}
	}
	if pr.manager == s.id {
		s.released(pr, data)
		if s.apply(p, o, pr) {
			if !d.acquires {
				return nil
			}
			return s.acquired(p, s.carried(pr, s.id))
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
	bufpool.Put(resp.TakeWire())
	return err
}

// handle serves the three request kinds at the manager. It drops a
// malformed request, one for a primitive it does not manage and a
// retransmission of a request already queued; otherwise it hands the
// payload to the model and applies the operation, then answers — an
// acquiring operation with what its grant carries — or queues the
// request for a later grant. The request's wire buffer goes back to the
// pool when handle returns, on every path.
func (s *Service) handle(p *sim.Proc, req *proto.Message) {
	defer bufpool.Put(req.TakeWire())
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
	s.released(pr, req.Data)
	if !s.apply(p, o, pr) {
		pr.waiters = append(pr.waiters, grantee{req: req})
		return
	}
	resp := &proto.Message{Kind: families[d.fam].reply}
	if d.acquires {
		resp.Data = s.carried(pr, HostID(req.From))
	}
	s.ep.Reply(p, req, resp)
}

// P acquires one unit of semaphore id, blocking until granted.
func (s *Service) P(p *sim.Proc, id uint32) { s.must(p, opP, id) }

// PE is P returning any failure: an undefined semaphore, or a manager
// host that crashed (the primitive is gone with it) instead of blocking
// forever.
func (s *Service) PE(p *sim.Proc, id uint32) error { return s.do(p, opP, id) }

// V releases one unit of semaphore id, waking the oldest waiter.
func (s *Service) V(p *sim.Proc, id uint32) { s.must(p, opV, id) }

// VE is V returning any failure.
func (s *Service) VE(p *sim.Proc, id uint32) error { return s.do(p, opV, id) }

// EventWait blocks until event id is set.
func (s *Service) EventWait(p *sim.Proc, id uint32) { s.must(p, opWait, id) }

// EventWaitE is EventWait returning any failure.
func (s *Service) EventWaitE(p *sim.Proc, id uint32) error { return s.do(p, opWait, id) }

// EventSet sets event id, releasing all waiters.
func (s *Service) EventSet(p *sim.Proc, id uint32) { s.must(p, opSet, id) }

// EventSetE is EventSet returning any failure.
func (s *Service) EventSetE(p *sim.Proc, id uint32) error { return s.do(p, opSet, id) }

// BarrierArrive announces arrival at barrier id and blocks until all
// participants have arrived; the barrier then resets for reuse.
func (s *Service) BarrierArrive(p *sim.Proc, id uint32) { s.must(p, opArrive, id) }

// BarrierArriveE is BarrierArrive returning any failure.
func (s *Service) BarrierArriveE(p *sim.Proc, id uint32) error { return s.do(p, opArrive, id) }

// must is the plain primitives' half of the failure contract: each
// panics with the error its E twin returns, an undefined primitive or a
// failed call alike.
func (s *Service) must(p *sim.Proc, o op, id uint32) {
	if err := s.do(p, o, id); err != nil {
		panic(fmt.Errorf("dsync: %s(%d): %w", ops[o].name, id, err))
	}
}
