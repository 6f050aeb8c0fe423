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
// host materializes state.
package dsync

import (
	"encoding/binary"
	"fmt"
	"hash"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// HostID aliases the network host identifier.
type HostID = remoteop.HostID

// Operation codes carried in messages.
const (
	opSemP = 1
	opSemV = 2

	opEventWait = 1
	opEventSet  = 2
)

// def describes one primitive: where it lives and its parameters.
type def struct {
	manager HostID
	initial int // semaphore count or barrier size
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

// grantee is a parked participant to release later: either a local
// process or a remote request awaiting its reply.
type grantee struct {
	local bool
	w     sim.Waiter
	woken *bool
	pay   *[]byte // payload delivery slot for local grantees
	req   *proto.Message
}

// payload accumulation is per primitive and monotone: vector timestamps
// and write notices only grow, so it is never reset — not even when a
// barrier recycles — and re-merging a retransmitted payload is a no-op.
type semState struct {
	count   int
	payload []byte
	waiters []grantee
}

type eventState struct {
	set     bool
	payload []byte
	waiters []grantee
}

type barrierState struct {
	size    int
	arrived int
	payload []byte
	waiters []grantee
}

// Service is one host's synchronization module.
type Service struct {
	k      *sim.Kernel
	id     HostID
	kind   arch.Kind
	ep     *remoteop.Endpoint
	params *model.Params

	defsSem     map[uint32]def
	defsEvent   map[uint32]def
	defsBarrier map[uint32]def

	sems     map[uint32]*semState
	events   map[uint32]*eventState
	barriers map[uint32]*barrierState

	model SyncModel
}

// AttachModel binds the consistency model's sync hooks. The cluster
// attaches the same model implementation on every host (or none).
func (s *Service) AttachModel(m SyncModel) { s.model = m }

// mustOK keeps the plain primitives' historical contract: without
// failure detection a synchronization failure is a simulation bug.
func mustOK(op string, id uint32, err error) {
	if err != nil {
		panic(fmt.Sprintf("dsync: %s(%d): %v", op, id, err))
	}
}

// New creates a host's synchronization service and registers handlers.
func New(k *sim.Kernel, ep *remoteop.Endpoint, kind arch.Kind, params *model.Params) *Service {
	s := &Service{
		k:           k,
		id:          ep.ID(),
		kind:        kind,
		ep:          ep,
		params:      params,
		defsSem:     make(map[uint32]def),
		defsEvent:   make(map[uint32]def),
		defsBarrier: make(map[uint32]def),
		sems:        make(map[uint32]*semState),
		events:      make(map[uint32]*eventState),
		barriers:    make(map[uint32]*barrierState),
	}
	ep.Handle(proto.KindSemOp, s.handleSemOp)
	ep.Handle(proto.KindEventOp, s.handleEventOp)
	ep.Handle(proto.KindBarrierOp, s.handleBarrierOp)
	return s
}

// DefineSemaphore declares semaphore id with its manager host and
// initial count. Every host must make identical definitions at setup.
func (s *Service) DefineSemaphore(id uint32, manager HostID, initial int) {
	s.defsSem[id] = def{manager: manager, initial: initial}
	if manager == s.id {
		s.sems[id] = &semState{count: initial}
	}
}

// DefineEvent declares event id with its manager host.
func (s *Service) DefineEvent(id uint32, manager HostID) {
	s.defsEvent[id] = def{manager: manager}
	if manager == s.id {
		s.events[id] = &eventState{}
	}
}

// DefineBarrier declares barrier id for n participants.
func (s *Service) DefineBarrier(id uint32, manager HostID, n int) {
	s.defsBarrier[id] = def{manager: manager, initial: n}
	if manager == s.id {
		s.barriers[id] = &barrierState{size: n}
	}
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
	// Accumulated release payloads are folded only when present, so the
	// byte stream of every payload-free (sequentially consistent) run is
	// unchanged by the consistency-model hook.
	pay := func(payload []byte) {
		if len(payload) > 0 {
			put(uint32(len(payload)))
			h.Write(payload)
		}
	}
	put(uint32(s.id))
	for _, id := range sim.SortedKeys(s.sems) {
		st := s.sems[id]
		put(id)
		put(uint32(st.count))
		put(uint32(len(st.waiters)))
		pay(st.payload)
	}
	put(0xffff_ffff) // section separator
	for _, id := range sim.SortedKeys(s.events) {
		st := s.events[id]
		put(id)
		if st.set {
			put(1)
		} else {
			put(0)
		}
		put(uint32(len(st.waiters)))
		pay(st.payload)
	}
	put(0xffff_fffe)
	for _, id := range sim.SortedKeys(s.barriers) {
		st := s.barriers[id]
		put(id)
		put(uint32(st.arrived))
		put(uint32(len(st.waiters)))
		pay(st.payload)
	}
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

// releasing runs the model's release action before the releasing
// operation proceeds, returning the payload to attach (nil without a
// model).
func (s *Service) releasing(p *sim.Proc) ([]byte, error) {
	if s.model == nil {
		return nil, nil
	}
	return s.model.ReleasePayload(p)
}

// release unblocks a grantee, delivering the granting payload: wake a
// local process or answer the remote request.
func (s *Service) release(p *sim.Proc, g grantee, kind proto.Kind, payload []byte) {
	if g.local {
		if g.pay != nil {
			*g.pay = payload
		}
		*g.woken = true
		s.k.Wake(g.w, sim.WakeSignal)
		return
	}
	s.ep.Reply(p, g.req, &proto.Message{Kind: kind, Data: payload})
}

// hasPending reports whether the same remote request (by origin and
// request ID) is already queued — a retransmission that outlived the
// endpoint's duplicate cache must not enqueue a second grantee.
func hasPending(list []grantee, req *proto.Message) bool {
	for _, g := range list {
		if !g.local && g.req.From == req.From && g.req.ReqID == req.ReqID {
			return true
		}
	}
	return false
}

// parkLocal parks the calling process as a grantee on the given list
// and returns the payload the grant delivered.
func parkLocal(p *sim.Proc, list *[]grantee) []byte {
	woken := false
	var payload []byte
	*list = append(*list, grantee{local: true, w: p.PrepareWait(), woken: &woken, pay: &payload})
	for !woken {
		p.Park()
	}
	return payload
}

// --- Semaphores ---

// P acquires one unit of semaphore id, blocking until granted.
func (s *Service) P(p *sim.Proc, id uint32) { mustOK("P", id, s.PE(p, id)) }

// PE is P returning an error when the semaphore's manager host has
// crashed (the primitive is gone with it) instead of blocking forever.
func (s *Service) PE(p *sim.Proc, id uint32) error {
	d, ok := s.defsSem[id]
	if !ok {
		panic(fmt.Sprintf("dsync: semaphore %d not defined", id))
	}
	if d.manager == s.id {
		st := s.sems[id]
		if st.count > 0 {
			st.count--
			return s.acquired(p, st.payload)
		}
		return s.acquired(p, parkLocal(p, &st.waiters))
	}
	resp, err := s.ep.CallBlocking(p, d.manager, &proto.Message{
		Kind: proto.KindSemOp,
		Args: []uint32{id, opSemP},
	})
	if err != nil {
		return fmt.Errorf("semaphore %d died with its manager %d: %w", id, d.manager, err)
	}
	return s.acquireReply(p, resp)
}

// acquireReply runs the model's acquire action with a grant reply's
// payload and recycles the reply's wire buffer.
func (s *Service) acquireReply(p *sim.Proc, resp *proto.Message) error {
	err := s.acquired(p, resp.Data)
	if buf := resp.TakeWire(); buf != nil {
		bufpool.Put(buf)
	}
	return err
}

// V releases one unit of semaphore id, waking the oldest waiter.
func (s *Service) V(p *sim.Proc, id uint32) { mustOK("V", id, s.VE(p, id)) }

// VE is V returning crash errors.
func (s *Service) VE(p *sim.Proc, id uint32) error {
	d, ok := s.defsSem[id]
	if !ok {
		panic(fmt.Sprintf("dsync: semaphore %d not defined", id))
	}
	data, err := s.releasing(p)
	if err != nil {
		return fmt.Errorf("release before V(%d): %w", id, err)
	}
	if d.manager == s.id {
		st := s.sems[id]
		s.mergePayload(&st.payload, data)
		s.semV(p, st)
		return nil
	}
	if _, err := s.ep.Call(p, d.manager, &proto.Message{
		Kind: proto.KindSemOp,
		Args: []uint32{id, opSemV},
		Data: data,
	}); err != nil {
		return fmt.Errorf("semaphore %d died with its manager %d: %w", id, d.manager, err)
	}
	return nil
}

func (s *Service) semV(p *sim.Proc, st *semState) {
	if len(st.waiters) > 0 {
		g := st.waiters[0]
		st.waiters = st.waiters[1:]
		s.release(p, g, proto.KindSemReply, st.payload)
		return
	}
	st.count++
}

func (s *Service) handleSemOp(p *sim.Proc, req *proto.Message) {
	if s.ep.Crashed() {
		p.Exit()
	}
	p.Sleep(s.params.SyncProcess.Of(s.kind))
	st := s.sems[req.Arg(0)]
	if st == nil {
		return // undefined here: requester is misconfigured and times out
	}
	switch req.Arg(1) {
	case opSemP:
		if st.count > 0 {
			st.count--
			s.ep.Reply(p, req, &proto.Message{Kind: proto.KindSemReply, Data: st.payload})
			return
		}
		if !hasPending(st.waiters, req) {
			st.waiters = append(st.waiters, grantee{req: req})
		}
	case opSemV:
		s.mergePayload(&st.payload, req.Data)
		if buf := req.TakeWire(); buf != nil {
			bufpool.Put(buf)
		}
		s.semV(p, st)
		s.ep.Reply(p, req, &proto.Message{Kind: proto.KindSemReply})
	}
}

// --- Events ---

// EventWait blocks until event id is set.
func (s *Service) EventWait(p *sim.Proc, id uint32) { mustOK("EventWait", id, s.EventWaitE(p, id)) }

// EventWaitE is EventWait returning crash errors.
func (s *Service) EventWaitE(p *sim.Proc, id uint32) error {
	d, ok := s.defsEvent[id]
	if !ok {
		panic(fmt.Sprintf("dsync: event %d not defined", id))
	}
	if d.manager == s.id {
		st := s.events[id]
		if st.set {
			return s.acquired(p, st.payload)
		}
		return s.acquired(p, parkLocal(p, &st.waiters))
	}
	resp, err := s.ep.CallBlocking(p, d.manager, &proto.Message{
		Kind: proto.KindEventOp,
		Args: []uint32{id, opEventWait},
	})
	if err != nil {
		return fmt.Errorf("event %d died with its manager %d: %w", id, d.manager, err)
	}
	return s.acquireReply(p, resp)
}

// EventSet sets event id, releasing all waiters.
func (s *Service) EventSet(p *sim.Proc, id uint32) { mustOK("EventSet", id, s.EventSetE(p, id)) }

// EventSetE is EventSet returning crash errors.
func (s *Service) EventSetE(p *sim.Proc, id uint32) error {
	d, ok := s.defsEvent[id]
	if !ok {
		panic(fmt.Sprintf("dsync: event %d not defined", id))
	}
	data, err := s.releasing(p)
	if err != nil {
		return fmt.Errorf("release before EventSet(%d): %w", id, err)
	}
	if d.manager == s.id {
		st := s.events[id]
		s.mergePayload(&st.payload, data)
		s.eventSet(p, st)
		return nil
	}
	if _, err := s.ep.Call(p, d.manager, &proto.Message{
		Kind: proto.KindEventOp,
		Args: []uint32{id, opEventSet},
		Data: data,
	}); err != nil {
		return fmt.Errorf("event %d died with its manager %d: %w", id, d.manager, err)
	}
	return nil
}

func (s *Service) eventSet(p *sim.Proc, st *eventState) {
	st.set = true
	for _, g := range st.waiters {
		s.release(p, g, proto.KindEventReply, st.payload)
	}
	st.waiters = nil
}

func (s *Service) handleEventOp(p *sim.Proc, req *proto.Message) {
	if s.ep.Crashed() {
		p.Exit()
	}
	p.Sleep(s.params.SyncProcess.Of(s.kind))
	st := s.events[req.Arg(0)]
	if st == nil {
		return
	}
	switch req.Arg(1) {
	case opEventWait:
		if st.set {
			s.ep.Reply(p, req, &proto.Message{Kind: proto.KindEventReply, Data: st.payload})
			return
		}
		if !hasPending(st.waiters, req) {
			st.waiters = append(st.waiters, grantee{req: req})
		}
	case opEventSet:
		s.mergePayload(&st.payload, req.Data)
		if buf := req.TakeWire(); buf != nil {
			bufpool.Put(buf)
		}
		s.eventSet(p, st)
		s.ep.Reply(p, req, &proto.Message{Kind: proto.KindEventReply})
	}
}

// --- Barriers ---

// BarrierArrive announces arrival at barrier id and blocks until all
// participants have arrived; the barrier then resets for reuse.
func (s *Service) BarrierArrive(p *sim.Proc, id uint32) {
	mustOK("BarrierArrive", id, s.BarrierArriveE(p, id))
}

// BarrierArriveE is BarrierArrive returning crash errors.
func (s *Service) BarrierArriveE(p *sim.Proc, id uint32) error {
	d, ok := s.defsBarrier[id]
	if !ok {
		panic(fmt.Sprintf("dsync: barrier %d not defined", id))
	}
	data, err := s.releasing(p)
	if err != nil {
		return fmt.Errorf("release before barrier %d: %w", id, err)
	}
	if d.manager == s.id {
		st := s.barriers[id]
		s.mergePayload(&st.payload, data)
		st.arrived++
		if st.arrived >= st.size {
			st.arrived = 0
			for _, g := range st.waiters {
				s.release(p, g, proto.KindBarrierReply, st.payload)
			}
			st.waiters = nil
			return s.acquired(p, st.payload)
		}
		return s.acquired(p, parkLocal(p, &st.waiters))
	}
	resp, err := s.ep.CallBlocking(p, d.manager, &proto.Message{
		Kind: proto.KindBarrierOp,
		Args: []uint32{id},
		Data: data,
	})
	if err != nil {
		return fmt.Errorf("barrier %d died with its manager %d: %w", id, d.manager, err)
	}
	return s.acquireReply(p, resp)
}

func (s *Service) handleBarrierOp(p *sim.Proc, req *proto.Message) {
	if s.ep.Crashed() {
		p.Exit()
	}
	p.Sleep(s.params.SyncProcess.Of(s.kind))
	st := s.barriers[req.Arg(0)]
	if st == nil {
		return
	}
	if hasPending(st.waiters, req) {
		return // retransmission of an arrival already counted
	}
	s.mergePayload(&st.payload, req.Data)
	if buf := req.TakeWire(); buf != nil {
		bufpool.Put(buf)
	}
	st.arrived++
	if st.arrived >= st.size {
		st.arrived = 0
		for _, g := range st.waiters {
			s.release(p, g, proto.KindBarrierReply, st.payload)
		}
		st.waiters = nil
		s.ep.Reply(p, req, &proto.Message{Kind: proto.KindBarrierReply, Data: st.payload})
		return
	}
	st.waiters = append(st.waiters, grantee{req: req})
}
