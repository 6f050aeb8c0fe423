package dsm

// The replication-engine layer. Each coherence policy (§2.1's algorithm
// spectrum) is one engine: an implementation of region reads, region
// writes and atomic swaps, plus one declaration (engineDecl) of
// everything the rest of the module needs to know about it — so the
// allocator, the invariant checker, the state hash and the harness
// oracles iterate what the engine declared instead of asking which
// engine is running. newEngine is the ONLY policy dispatch point — the
// policy-branch vet rule flags any cfg.Policy comparison outside this
// file — so adding an algorithm means adding an engine, not editing
// every call site.
//
// The engines share the directory layer (directory.go: who manages a
// page) and the transfer steps (transfer.go, conv): an engine decides
// *when* pages move and replicate; the directory decides *whom* to ask;
// the transfer steps decide *how* bytes travel and convert.

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// engine is one coherence policy's replication strategy.
type engine interface {
	// readRegion makes [addr, addr+n) readable and hands its byte spans
	// to fn in order (see Module.readRegion for the full contract).
	readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error
	// writeRegion makes [addr, addr+n) writable and lets fill produce
	// the new bytes span by span.
	writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error
	// atomicSwap exchanges the int32 at addr atomically.
	atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error)
}

// engineDecl is what an engine declares about itself, once, when it is
// built (its constructor also registers the proto.Kind handlers it
// serves — a request of a kind no engine of this cluster registered is
// dropped by the remote-operation layer and its caller times out). The
// composition only iterates these obligations, after SC-ABD's
// compositional proof: each layer states its own, none is re-derived
// from which engine is running.
type engineDecl struct {
	// firstTouch makes the allocation manager keep a zero-filled
	// writable copy of every fresh page (the page policies' first-touch
	// ownership). Engines whose pages live at servers or in replica
	// sets leave it false.
	firstTouch bool
	// invariants audits one page beyond the structural checks every
	// engine shares (check.go), given the live hosts holding it
	// writable and holding it at all. Nil means the MRSW residency
	// invariants: a unique writer, and the directory's ownership
	// records agreeing with who holds what.
	invariants func(c *InvariantChecker, point string, page PageNo, writers, holders []HostID)
	// pages lists the pages the engine holds outside the module's
	// resident-page table, for the checker's whole-space sweep; nil
	// when it holds none.
	pages func() []PageNo
	// hashState folds the engine's private state into a state
	// fingerprint as its own section, after the module's; nil when all
	// its state is the module's.
	hashState func(put func(uint32), putBody func([]byte))
	// traceCheck is the offline oracle a recorded access trace must
	// satisfy; nil means sequential consistency (sctrace.Check).
	traceCheck func(ops []sctrace.Op) []sctrace.Violation
	// sync is the consistency model dsync threads through locks,
	// events and barriers; nil when the engine propagates at access
	// time and synchronization carries nothing (nil keeps dsync's
	// behaviour bit-identical).
	sync *rcEngine
}

// validatePolicy checks the policy-dependent configuration rules. It
// lives here because engine.go is the package's one policy-dispatch
// file (see the policy-branch vet rule).
func (c *Config) validatePolicy() error {
	if c.Directory == DirDynamic && c.Policy != PolicyMRSW {
		return fmt.Errorf("dsm: dynamic directory is only defined for the MRSW policy, not %v", c.Policy)
	}
	return nil
}

// newEngine builds the engine for the configured policy and returns it
// with its declaration. This switch is the single policy dispatch point
// of the package.
func newEngine(m *Module) (engine, engineDecl) {
	switch m.cfg.Policy {
	case PolicyCentral:
		return newCentralEngine(m)
	case PolicyUpdate:
		return newUpdateEngine(m)
	case PolicyMigration:
		return &pagedEngine{Module: m, writeOnRead: true}, engineDecl{firstTouch: true}
	case PolicyQuorum:
		return newQuorumEngine(m)
	case PolicyRC:
		return newRCEngine(m)
	default:
		return &pagedEngine{Module: m}, engineDecl{firstTouch: true}
	}
}

// TraceCheck validates a recorded access trace against the consistency
// contract this module's engine declared: the SC witness-order checker
// for the sequentially consistent engines, the happens-before checker
// for the lazy-release engine. Harnesses (mc, chaos) call this instead
// of hard-wiring sctrace.Check.
func (m *Module) TraceCheck(ops []sctrace.Op) []sctrace.Violation {
	if m.decl.traceCheck != nil {
		return m.decl.traceCheck(ops)
	}
	return sctrace.Check(ops)
}

// SyncModel returns the engine's synchronization hooks for
// dsync.Service.AttachModel, or nil when it declared none. The cluster
// wires it after building both modules; callers must preserve the nil
// (attaching a typed nil would enable the payload path).
func (m *Module) SyncModel() *rcEngine {
	return m.decl.sync
}

// readRegion makes [addr, addr+n) readable and hands its byte spans to
// fn in order, according to the active engine. Under the page engines
// (MRSW, migration, update reads, RC) residency is ensured one
// native-VM-page group at a time and the group's bytes are consumed
// before moving on (walkGroups). Under the central engine the bytes are
// fetched from each page's server, already converted to this host's
// representation; under the quorum engine each page span is one
// majority operation (walkPages).
//
// Under failure detection a failed access returns a typed error:
// ErrHostDown, or ErrPageLost from a page engine's fault.
func (m *Module) readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error {
	return m.engine.readRegion(p, addr, n, fn)
}

// writeRegion makes [addr, addr+n) writable and lets fill produce the
// new bytes span by span, with the same granularity as readRegion.
func (m *Module) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	return m.engine.writeRegion(p, addr, n, fill)
}

// pagedEngine is the page-migration family: Li's MRSW write-invalidate
// algorithm (writeOnRead=false) and single-copy migration
// (writeOnRead=true, every read faults for ownership). Residency and
// coherence run through the directory's fault path; this engine only
// fixes the access right each operation demands. Like every engine it
// embeds the module it drives: an engine is the module plus whatever
// state is private to its policy.
type pagedEngine struct {
	*Module
	// writeOnRead makes read accesses fault for write ownership: the
	// migration policy's single migrating copy.
	writeOnRead bool
}

func (e *pagedEngine) readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error {
	ensure := func(addr Addr, n int) error { return e.EnsureAccess(p, addr, n, e.writeOnRead) }
	return e.walkGroups(p, addr, n, sctrace.Read, ensure, nil, fn)
}

func (e *pagedEngine) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	ensure := func(addr Addr, n int) error { return e.EnsureAccess(p, addr, n, true) }
	return e.walkGroups(p, addr, n, sctrace.Write, ensure, nil, fill)
}

// atomicSwap holds write ownership from the access check to the store
// without yielding, which is what makes the exchange atomic.
func (e *pagedEngine) atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	t0 := e.traceClock()
	if err := e.EnsureAccess(p, addr, 4, true); err != nil {
		return 0, err
	}
	var old int32
	e.forEachSpan(addr, 4, func(seg []byte, _ int) {
		old = conv.GetInt32(e.arch, seg)
		e.recordSC(p, sctrace.Read, t0, addr, seg)
		conv.PutInt32(e.arch, seg, v)
		e.recordSC(p, sctrace.Write, t0, addr, seg)
	})
	return old, nil
}

// centralEngine is the central-server policy: no page ever leaves its
// server; every access is a remote operation (central.go).
type centralEngine struct {
	*Module
}

func newCentralEngine(m *Module) (engine, engineDecl) {
	e := &centralEngine{m}
	m.ep.Handle(proto.KindRemoteRead, e.handleRemoteRead)
	m.ep.Handle(proto.KindRemoteWrite, e.handleRemoteWrite)
	return e, engineDecl{invariants: checkCentralPage}
}

func (e *centralEngine) readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error {
	return e.walkPages(addr, n, func(s span) error {
		t0 := e.traceClock()
		seg, wire, err := e.centralRead(p, s.page, s.lo, s.n)
		if err != nil {
			return err
		}
		fn(seg, s.off)
		e.recordSC(p, sctrace.Read, t0, s.addr, seg)
		bufpool.Put(wire) // recordSC copies what it keeps
		return nil
	})
}

func (e *centralEngine) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	return e.walkPages(addr, n, func(s span) error {
		// Pooled staging: centralWrite blocks until the server has
		// acknowledged and recordSC copies what it keeps.
		seg := bufpool.Get(s.n)
		defer bufpool.Put(seg)
		t0 := e.traceClock()
		fill(seg, s.off)
		err := e.centralWrite(p, s.page, s.lo, seg)
		if err == nil {
			e.recordSC(p, sctrace.Write, t0, s.addr, seg)
		}
		return err
	})
}

func (e *centralEngine) atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	return e.centralSwap(p, addr, v)
}

// updateEngine is the write-update policy: reads replicate exactly as
// under MRSW (the embedded paged engine), writes are sequenced by the
// manager and pushed to every replica (update.go).
type updateEngine struct {
	pagedEngine
}

func newUpdateEngine(m *Module) (engine, engineDecl) {
	e := &updateEngine{pagedEngine{Module: m}}
	m.ep.Handle(proto.KindUpdateWrite, e.handleUpdateWrite)
	m.ep.Handle(proto.KindApplyUpdate, e.handleApplyUpdate)
	return e, engineDecl{firstTouch: true}
}

// writeRegion ensures a local replica, then sequences each page span's
// new bytes through the page's manager. Under failure detection a
// failed residency fault or sequencing call returns its typed error.
func (e *updateEngine) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	return e.walkPages(addr, n, func(s span) error {
		t0 := e.traceClock()
		// The writer keeps a read replica (faulting it in if needed) so
		// its own copy stays current once the update is sequenced.
		if err := e.EnsureAccess(p, s.addr, s.n, false); err != nil {
			return err
		}
		// Pooled staging: sequenceWrite blocks until the update is
		// distributed and recordSC copies what it keeps.
		seg := bufpool.Get(s.n)
		defer bufpool.Put(seg)
		fill(seg, s.off)
		err := e.sequenceWrite(p, s.page, s.lo, seg)
		if err == nil {
			e.recordSC(p, sctrace.Write, t0, s.addr, seg)
		}
		return err
	})
}

func (e *updateEngine) atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	return 0, noAtomicsErr(PolicyUpdate)
}
