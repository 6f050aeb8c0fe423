package dsm

// Li & Hudak's dynamic distributed manager (the scheme the paper's §3.1
// considered and passed over for fixed distributed managers — this file
// makes the ablation runnable). There is no manager: every host keeps a
// per-page *probable owner* hint, initially the allocation manager. A
// fault sends the request to the hint; a host that is not the owner
// forwards it one hop down its own hint chain, and the true owner
// serves the requester directly, redeeming its original request with
// the shared PageDeliver/installBody transfer path. Hints are
// compressed as requests travel: a forwarder points its hint at a write
// requester (who is about to become owner), a relinquishing owner
// points at the new owner, and a reader points at the owner that served
// it. Li & Hudak prove a request reaches the owner in at most N-1
// forwards; dynHopBound backstops that argument with a hard assertion
// the model checker can trip.
//
// The owner, not a manager, keeps the page's copyset and runs the
// invalidation round before relinquishing ownership — so the shared
// sendInvalidations/serveCopy machinery (and the mutations injected
// into it) applies unchanged.
//
// Crash recovery is lazy (there is no manager table to sweep): a
// requester whose chain dead-ends at a crashed host — a failed call, or
// a flagRetry delivery from the forwarder that saw the corpse — routes
// through a recovery coordinator (the smallest live host), which probes
// every survivor for a copy with the lock-free KindRecoverPage handler,
// points the requester at a surviving owner, rebuilds ownership from a
// read copy, or declares the page lost.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// dynPage is one host's dynamic-directory state for a page.
type dynPage struct {
	// probOwner is the probable-owner hint: the first hop of the chain
	// that leads to the true owner. Equal to the host's own ID exactly
	// when owned (absent injected bugs).
	probOwner HostID
	// owned marks this host as the page's current owner: it holds the
	// authoritative copy, and its pageTxn's copyset is the page's. Every
	// host's lock queues its own fault and every incoming request.
	owned bool
	// pageTxn's confirm handshake (KindDynConfirm) also arbitrates a
	// failed write deliver, where only the requester knows whether the
	// copy landed (see dynOwnerServe).
	pageTxn
	// recLock serializes recovery coordination for the page. Separate
	// from lock on purpose: the coordinator may be asked to recover a
	// page while its own fault for that page holds lock.
	recLock *sim.Semaphore
	// confirmReq pins the confirmation to this transaction's request ID
	// so a late confirm from an earlier serve cannot satisfy it.
	confirmReq uint32
}

// dynHopBound caps a forwarding chain. Li & Hudak bound chains by N-1
// hops; exceeding 2N hops means the hint graph cycled — a protocol bug
// (or an injected stale-probable-owner mutation) worth a loud stop.
func (m *Module) dynHopBound() int { return 2 * len(m.hosts) }

// Dynamic-recovery reply codes (Args[0] of KindDynRecoverReply).
const (
	dynRecLost  = 0 // every copy died; the page is gone
	dynRecFound = 1 // Args[1] names a live owner
	dynRecRetry = 2 // coordination raced a crash; ask again
)

// dynPageFor returns (creating if needed) the dynamic state of a page.
// Fresh entries point at host 0, the allocation manager and initial
// owner of every page.
func (m *Module) dynPageFor(page PageNo) *dynPage {
	dp := m.dyn[page]
	if dp == nil {
		dp = &dynPage{pageTxn: newPageTxn(m.k), recLock: sim.NewSemaphore(m.k, 1).Ranked(rankRecovery, "recovery lock")}
		m.dyn[page] = dp
	}
	return dp
}

// ProbableOwner returns this host's probable-owner hint for a page and
// whether this host currently owns it (dynamic directory only; tests
// and harnesses).
func (m *Module) ProbableOwner(page PageNo) (HostID, bool) {
	if dp := m.dyn[page]; dp != nil {
		return dp.probOwner, dp.owned
	}
	return 0, false
}

// dynamicDirectory implements Li & Hudak's dynamic distributed manager.
type dynamicDirectory struct {
	m *Module
}

func newDynamicDirectory(m *Module) *dynamicDirectory {
	m.dyn = make(map[PageNo]*dynPage)
	m.ep.Handle(proto.KindDynGetPage, m.handleDynGetPage)
	m.ep.Handle(proto.KindDynGetPageWrite, m.handleDynGetPage)
	m.ep.Handle(proto.KindDynForward, m.handleDynForward)
	m.ep.Handle(proto.KindDynRecover, m.handleDynRecover)
	m.ep.HandleEvent(proto.KindDynConfirm, remoteop.EventHandler{Reply: m.handleDynConfirm})
	return &dynamicDirectory{m: m}
}

func (d *dynamicDirectory) pages() []PageNo { return sim.SortedKeys(d.m.dyn) }

// hashState is the dynamic scheme's section of the state fingerprint:
// each page's hint, ownership, transaction lock state and copyset.
func (d *dynamicDirectory) hashState(put func(uint32)) {
	put(0xffff_fffc)
	for _, pg := range d.pages() {
		dp := d.m.dyn[pg]
		put(uint32(pg))
		put(uint32(dp.probOwner))
		if dp.owned {
			put(1)
		} else {
			put(0)
		}
		put(uint32(dp.lock.Count())) // distinguishes in-flight from quiescent
		if dp.lost {
			put(0xdead_4c57)
		}
		for _, hID := range dynCopysetList(dp, d.m.id) {
			put(uint32(hID))
		}
		put(0xffff_fffe)
	}
}

// home is unreachable: only the fixed schemes' transactions ask for a
// manager, Config.Validate admits the dynamic directory only under
// PolicyMRSW, and Module.Manager documents the panic.
func (d *dynamicDirectory) home(page PageNo) HostID {
	panic(fmt.Sprintf("dsm: page %d has no fixed manager under the dynamic directory", page))
}

func (d *dynamicDirectory) allocOwned(page PageNo) {
	dp := d.m.dynPageFor(page)
	dp.owned = true
	dp.probOwner = d.m.id
}

// checkPage asserts the dynamic distributed manager's invariants for one
// page: there is no manager table, so invariants 2–4 (checkRecords) are
// checked against the owner's own records, and the probable-owner graph
// adds one — from every live host, the hint chain must reach the owner
// within N hops (Li & Hudak's bound).
func (d *dynamicDirectory) checkPage(c *InvariantChecker, point string, page PageNo, writers, holders []HostID) {
	var owners []*Module
	busy := false
	anyCrashed := false
	for _, m := range c.mods {
		if m.ep.Crashed() {
			anyCrashed = true
			continue
		}
		dp := m.dyn[page]
		if dp == nil {
			continue
		}
		if dp.lock.Count() == 0 || dp.recLock.Count() == 0 {
			busy = true // a transaction or recovery holds the page
		}
		if dp.owned {
			owners = append(owners, m)
		}
	}
	if busy {
		// A transaction or recovery in flight: the new owner records
		// itself on redeeming the delivery, the old owner relinquishes
		// only once the delivery is acknowledged, and the server's page
		// lock is held across that whole window — so ownership overlap
		// is legitimate exactly while some lock is taken.
		return
	}
	if len(owners) > 1 {
		ids := make([]HostID, len(owners))
		for i, m := range owners {
			ids[i] = m.id
		}
		c.report(point, page, "multiple dynamic owners on hosts %v", ids)
	}
	if len(owners) != 1 {
		// Ownerless (mid-crash, lost, or pre-recovery): only the
		// structural invariants apply. A quiescent wedged state surfaces
		// as a timeout or model-checker deadlock, not here.
		return
	}
	own := owners[0]
	c.checkRecords(point, page, "host", own.id, own, own.dyn[page].copyset, writers, holders)
	if anyCrashed {
		return // chains through corpses are repaired lazily on demand
	}
	for _, m := range c.mods {
		hops := 0
		cur := m
		for cur.id != own.id {
			hint := HostID(0) // a host that never faulted points at the allocation manager
			if hp := cur.dyn[page]; hp != nil {
				hint = hp.probOwner
			}
			next := c.byID(hint)
			if next == nil {
				c.report(point, page, "host %d's probable-owner hint names unknown host %d", cur.id, hint)
				break
			}
			hops++
			if hops > len(c.mods) {
				c.report(point, page, "probable-owner chain from host %d does not reach owner %d within %d hops",
					m.id, own.id, len(c.mods))
				break
			}
			cur = next
		}
	}
}

// fault obtains the page by chasing the probable-owner chain. The
// page's transaction lock is held for the whole exchange, so requests
// arriving here meanwhile queue and are served once this host owns the
// page — Li's request queueing, and what keeps chains bounded.
func (d *dynamicDirectory) fault(p *sim.Proc, page PageNo, write bool) error {
	m := d.m
	dp := m.dynPageFor(page)
	dp.lock.P(p)
	defer dp.lock.V()
	for {
		m.exitIfCrashed(p)
		if m.hasAccess(page, write) {
			return nil // an incoming transfer or recovery landed it meanwhile
		}
		if dp.lost {
			return pageLostErr(page)
		}
		if dp.owned {
			// Write fault on the owner of a read-shared page: invalidate
			// the replicas and upgrade in place.
			if err := m.sendInvalidations(p, page, dynCopysetList(dp, m.id)); err != nil {
				return err
			}
			clear(dp.copyset)
			m.upgradeLocal(p, page)
			m.trace("dyn-upgraded", page)
			return nil
		}
		target := dp.probOwner
		if target == m.id {
			// Unreachable by the hint invariant: probOwner names this host
			// exactly when it owns the page (dynPage). Only the
			// stale-probable-owner mutation breaks it.
			panic(fmt.Sprintf("dsm: host %d faulting page %d with a self probable-owner hint while not owner", m.id, page))
		}
		kind := proto.KindDynGetPage
		if write {
			kind = proto.KindDynGetPageWrite
		}
		// Li transaction: dp.lock stays held across the call. Every hop
		// holds only its own host's per-page entry, and the probable-owner
		// chain is acyclic, so the cross-host waits cannot cycle.
		resp, err := m.ep.Call(p, target, &proto.Message{Kind: kind, Page: uint32(page)})
		if err != nil {
			// A dead or unreachable first hop, or an unanswered chase: the
			// serving transaction died in a crash, or the request cycled
			// through survivors' stale hints and was dropped. Either way
			// the chain is broken — rebuild a route through the
			// coordinator.
			if rerr := m.dynRecover(p, page, dp); rerr != nil {
				return rerr
			}
			continue
		}
		flags := resp.Arg(0)
		if flags&flagLost != 0 {
			bufpool.Put(resp.TakeWire())
			dp.lost = true
			return pageLostErr(page)
		}
		if flags&flagRetry != 0 {
			// A forwarder saw the next hop dead: find the owner (or a
			// survivor to rebuild from) through the recovery coordinator.
			bufpool.Put(resp.TakeWire())
			if rerr := m.dynRecover(p, page, dp); rerr != nil {
				return rerr
			}
			continue
		}
		server := HostID(resp.From) // the owner that served us
		reqid := resp.Arg(1)        // our request's ID, echoed back in the confirm
		m.installBody(p, page, resp, write)
		w := uint32(0)
		if write {
			dp.owned = true
			dp.probOwner = m.id
			clear(dp.copyset)
			w = 1
		} else {
			dp.probOwner = server
		}
		// Confirm the installation so the server's transaction can close:
		// a read serve holds the page open until the copy is installed
		// (awaitConfirm), and a write serve whose deliver ack was
		// lost needs the confirm to commit the handoff instead of
		// resurrecting its stale copy.
		_, cerr := m.ep.Call(p, server, &proto.Message{
			Kind: proto.KindDynConfirm,
			Page: uint32(page),
			Args: []uint32{reqid, w},
		})
		// A server that does not acknowledge the confirm died (its
		// transaction died with it and recovery owns the page now) or is
		// cut off (awaitConfirm decides what its transaction does). The
		// page is installed here either way.
		bestEffort(cerr)
		return nil
	}
}

// handleDynGetPage receives a requester's first hop: the host it
// believes to be the owner. Never answered directly — the true owner
// redeems the requester's call with a PageDeliver.
func (m *Module) handleDynGetPage(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	write := req.Kind == proto.KindDynGetPageWrite
	m.dynServeOrForward(p, PageNo(req.Page), HostID(req.From), req.ReqID, write, 0)
}

// handleDynForward receives a request already in flight down the chain.
// Receipt is acknowledged immediately so a lost hop is retransmitted
// by the previous node rather than stalling the transaction.
func (m *Module) handleDynForward(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindDynForwardAck, Page: req.Page})
	m.dynServeOrForward(p, PageNo(req.Page), HostID(req.Arg(0)), req.Arg(1), req.Arg(2) == 1, int(req.Arg(3)))
}

// dynServeOrForward runs one node's step of the chain: serve the
// requester if this host owns the page, otherwise forward one hop down
// the local hint — compressing the hint onto a write requester, who is
// about to become owner.
func (m *Module) dynServeOrForward(p *sim.Proc, page PageNo, requester HostID, origReqID uint32, write bool, hops int) {
	if requester == m.id {
		// Our own chased request routed back to us: only stale
		// retransmissions that crossed a recovery can do this. Without
		// crashes it is unreachable by Li & Hudak's hint invariant: the
		// probable-owner graph is a tree rooted at the owner (the
		// checker walks it), so a request never revisits its sender.
		if m.liveness != nil {
			return
		}
		panic(fmt.Sprintf("dsm: host %d received its own dynamic request for page %d", m.id, page))
	}
	if hops > m.dynHopBound() {
		if m.liveness == nil {
			// Unreachable by the same invariant (a chain is at most N-1
			// hops); the stale-probable-owner mutation trips it.
			panic(fmt.Sprintf("dsm: page %d forwarding chain exceeded %d hops (probable-owner cycle)", page, m.dynHopBound()))
		}
		// A crash can cut the true owner out of the hint graph with
		// requests in flight, leaving the survivors' hints in a cycle —
		// every hop alive, so no dead-peer error ever fires. The bound is
		// the cycle detector: bounce the requester to the recovery
		// coordinator, which rebuilds a live owner (or declares the page
		// lost with its last copy).
		bestEffort(m.deliverFlag(p, requester, page, flagRetry, origReqID))
		return
	}
	dp := m.dynPageFor(page)
	dp.lock.P(p)
	defer dp.lock.V()
	m.exitIfCrashed(p)
	if dp.lost {
		bestEffort(m.deliverFlag(p, requester, page, flagLost, origReqID))
		return
	}
	if !dp.owned {
		next := dp.probOwner
		if next == m.id {
			// Unreachable by the hint invariant, as in fault.
			panic(fmt.Sprintf("dsm: host %d forwarding page %d to itself (probable-owner self-loop)", m.id, page))
		}
		if write {
			// Path compression: the requester is about to become owner.
			dp.probOwner = requester
		}
		m.stats.Forwards++
		m.trace("dyn-forward", page)
		p.Sleep(m.cfg.Params.ForwardCost.Of(m.arch.Kind))
		w := uint32(0)
		if write {
			w = 1
		}
		// Li forward: dp.lock stays held across the call. Every hop
		// holds only its own host's per-page entry, and the probable-owner
		// chain is acyclic, so the cross-host waits cannot cycle.
		if _, err := m.ep.Call(p, next, &proto.Message{
			Kind: proto.KindDynForward,
			Page: uint32(page),
			Args: []uint32{uint32(requester), origReqID, w, uint32(hops + 1)},
		}); err != nil {
			// The next hop is dead or unreachable: point the chain at the
			// requester (who is about to recover a route to the owner) and
			// tell it to take the recovery path.
			dp.probOwner = requester
			bestEffort(m.deliverFlag(p, requester, page, flagRetry, origReqID))
		}
		return
	}
	m.dynOwnerServe(p, page, dp, requester, origReqID, write, hops)
}

// dynOwnerServe runs the owner-side transfer transaction: the dynamic
// equivalent of the fixed manager's read/writeTransaction, with the
// owner itself holding the copyset. The caller holds dp.lock.
func (m *Module) dynOwnerServe(p *sim.Proc, page PageNo, dp *dynPage, requester HostID, origReqID uint32, write bool, hops int) {
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.ManagerProcess.Of(m.arch.Kind)))
	m.stats.ChainServes++
	m.stats.ChainHops += hops
	if hops > m.stats.ChainMax {
		m.stats.ChainMax = hops
	}
	if !write {
		dp.confirmed = false
		dp.confirmReq = origReqID
		if err := m.serveCopy(p, page, false, requester, origReqID); err != nil {
			return // requester times out and re-faults
		}
		if m.cfg.Mutation == MutDropCopyset {
			m.trace("dyn-transfer", page)
			return // injected bug: the new reader is never invalidated
		}
		dp.copyset[requester] = struct{}{}
		m.awaitConfirm(p, &dp.pageTxn, requester)
		m.trace("dyn-transfer", page)
		return
	}
	_, requesterHasCopy := dp.copyset[requester]
	// Every copy except the requester's must die before the write: the
	// replicas, and — when the requester upgrades in place — this
	// host's own (sendInvalidations drops the local copy directly).
	targets := dynCopysetList(dp, requester)
	if requesterHasCopy {
		targets = append(targets, m.id)
	}
	if err := m.sendInvalidations(p, page, targets); err != nil {
		return
	}
	if requesterHasCopy {
		if err := m.deliverFlag(p, requester, page, flagUpgrade, origReqID); err != nil {
			// The grant never landed, but the invalidation round above
			// (our own copy included) already made the requester's copy
			// the page: commit the handoff before aborting, exactly as
			// the fixed manager's writeTransaction learned to.
			m.dynCommitHandoff(dp, requester)
			return
		}
	} else {
		dp.confirmed = false
		dp.confirmReq = origReqID
		if err := m.serveCopy(p, page, true, requester, origReqID); err != nil {
			// The deliver errored, yet it may have landed anyway — a lost
			// ack, or the requester crashing after installing (by which
			// time it may have written and served third parties from the
			// new copy). Only the requester's installation confirmation
			// can arbitrate; resurrecting our copy after a landed
			// transfer would roll back witnessed writes.
			m.awaitConfirm(p, &dp.pageTxn, requester)
			switch {
			case dp.confirmed:
				// The transfer landed; only the acknowledgement was lost.
				m.dynCommitHandoff(dp, requester)
				m.trace("dyn-transfer", page)
			case m.deadHost(requester):
				// Unknowable whether the requester's copy became visible
				// before it crashed: never resurrect ours. Recovery
				// rebuilds from surviving read copies or declares the
				// page lost with its last writer.
				m.localPageFor(page).access = NoAccess // undo serveCopy's restore
				m.dynCommitHandoff(dp, requester)
			}
			// Otherwise the requester is alive and never installed:
			// serveCopy's restored access stands, we remain owner, and
			// the requester's own timeout routes it back here through
			// the recovery coordinator.
			return
		}
	}
	m.dynCommitHandoff(dp, requester)
	m.trace("dyn-transfer", page)
}

// handleDynConfirm receives the requester's installation confirmation
// on the owner that served it. Args[0] echoes the serve's original
// request ID (matched against confirmReq so a delayed confirm from an
// earlier transaction is ignored); Args[1] is 1 for a write install.
func (m *Module) handleDynConfirm(req *proto.Message) *proto.Message {
	if dp, ok := m.dyn[PageNo(req.Page)]; ok && req.Arg(0) == dp.confirmReq {
		if !m.confirm(&dp.pageTxn) && req.Arg(1) == 1 && dp.owned && HostID(req.From) != m.id {
			// A write-handoff confirmation that outlived its
			// transaction's patience: the requester did install, so the
			// claim we restored meanwhile is the stale one. Commit the
			// handoff it proves.
			m.localPageFor(PageNo(req.Page)).access = NoAccess
			m.dynCommitHandoff(dp, HostID(req.From))
		}
		m.trace("dyn-confirmed", PageNo(req.Page))
	}
	return &proto.Message{Kind: proto.KindDynConfirmAck, Page: req.Page}
}

// dynCommitHandoff records that ownership left for requester.
func (m *Module) dynCommitHandoff(dp *dynPage, requester HostID) {
	dp.owned = false
	clear(dp.copyset)
	if m.cfg.Mutation != MutStaleProbableOwner {
		// Injected bug when skipped: the hint keeps pointing here, so
		// every later request dead-ends one hop short of the new owner.
		dp.probOwner = requester
	}
}

// dynRecover reroutes a fault whose probable-owner chain broke at a
// crashed host: ask the recovery coordinator for a live owner (it
// rebuilds one from surviving copies if needed). The caller holds
// dp.lock; on success the hint points at a live owner and the fault
// retries.
func (m *Module) dynRecover(p *sim.Proc, page PageNo, dp *dynPage) error {
	coord := m.dynCoordinator()
	var owner HostID
	var st uint32
	if coord == m.id {
		owner, st = m.dynCoordinate(p, page)
	} else {
		resp, err := m.ep.Call(p, coord, &proto.Message{Kind: proto.KindDynRecover, Page: uint32(page)})
		if err != nil {
			return fmt.Errorf("page %d recovery via coordinator %d: %w", page, coord, err)
		}
		st, owner = resp.Arg(0), HostID(resp.Arg(1))
		bufpool.Put(resp.TakeWire())
		if st == dynRecLost {
			m.trace("page-lost", page) // the coordinator traced its own verdict
		}
	}
	switch st {
	case dynRecFound:
		dp.probOwner = owner
		return nil
	case dynRecLost:
		dp.lost = true
		return pageLostErr(page)
	default:
		return fmt.Errorf("page %d recovery raced a crash; retrying", page)
	}
}

// dynCoordinator picks the recovery coordinator: the smallest live
// host, so every survivor routes broken chains through the same place
// and coordinations serialize on its recLock.
func (m *Module) dynCoordinator() HostID {
	for i := range m.hosts {
		h := HostID(i)
		if h == m.id || !m.deadHost(h) {
			return h
		}
	}
	return m.id
}

// handleDynRecover serves a broken-chain report on the coordinator.
func (m *Module) handleDynRecover(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	owner, st := m.dynCoordinate(p, PageNo(req.Page))
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindDynRecoverReply,
		Page: req.Page,
		Args: []uint32{st, uint32(owner)},
	})
}

// dynCoordinate locates (or rebuilds) a live owner for a page whose
// chain broke. It probes every survivor with the lock-free
// KindRecoverPage handler — deliberately NOT the per-page transaction
// lock, which the probed host may be holding inside its own fault — and
// prefers, in order: an existing live owner or writable copy; rebuilding
// ownership here from a surviving read copy; declaring the page lost.
func (m *Module) dynCoordinate(p *sim.Proc, page PageNo) (HostID, uint32) {
	dp := m.dynPageFor(page)
	dp.recLock.P(p)
	defer dp.recLock.V()
	m.exitIfCrashed(p)
	if dp.lost {
		return 0, dynRecLost
	}
	if dp.owned {
		return m.id, dynRecFound
	}
	var readHolders []HostID
	if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		readHolders = append(readHolders, m.id)
	}
	for i := range m.hosts {
		h := HostID(i)
		if h == m.id || m.deadHost(h) {
			continue
		}
		resp, err := m.ep.Call(p, h, &proto.Message{
			Kind: proto.KindRecoverPage,
			Page: uint32(page),
			Args: []uint32{2}, // dynamic possession probe: access + ownership, no data
		})
		if errors.Is(err, remoteop.ErrPeerDead) {
			continue // declared dead mid-probe; its copy died with it
		}
		if err != nil {
			// Unreachable but not declared dead: its copy may be the
			// page's only one, so this round proves nothing.
			return 0, dynRecRetry
		}
		has := resp.Arg(0) != 0
		acc := Access(resp.Arg(1))
		owned := resp.Arg(2) == 1
		bufpool.Put(resp.TakeWire())
		if owned || acc == WriteAccess {
			// A live owner exists: the requester's chain was merely
			// stale. Point it straight there. Checked before `has`: a
			// serving owner drops its access for the transfer window, but
			// it is still the page's authority (it keeps its copy if the
			// handoff aborts) — skipping it here would declare a live page
			// lost.
			m.trace("reconciled", page)
			return h, dynRecFound
		}
		if !has {
			continue
		}
		readHolders = append(readHolders, h)
	}
	// The probe round parks this process repeatedly: re-check our own
	// state, which a queued transaction may have changed meanwhile.
	if dp.lost {
		return 0, dynRecLost
	}
	if dp.owned {
		return m.id, dynRecFound
	}
	if len(readHolders) == 0 {
		dp.lost = true
		m.stats.PagesLost++
		m.trace("page-lost", page)
		return 0, dynRecLost
	}
	if readHolders[0] != m.id {
		// Rebuild ownership here from the first surviving read copy.
		fetched := false
		for _, src := range readHolders {
			resp, err := m.ep.Call(p, src, &proto.Message{Kind: proto.KindRecoverPage, Page: uint32(page)})
			if err != nil {
				continue
			}
			if resp.Arg(0) == 0 {
				bufpool.Put(resp.TakeWire())
				continue
			}
			m.installRecovered(p, page, resp)
			fetched = true
			break
		}
		if !fetched {
			// Every holder vanished between probe and fetch: let the
			// requester retry and coordination rerun against reality.
			return 0, dynRecRetry
		}
	}
	dp.owned = true
	dp.probOwner = m.id
	clear(dp.copyset)
	for _, h := range readHolders {
		if h != m.id {
			dp.copyset[h] = struct{}{}
		}
	}
	m.stats.PagesRecovered++
	m.trace("recover", page)
	return m.id, dynRecFound
}

// dynCopysetList renders a dynamic copyset deterministically, excluding
// one host (the requester being served, or the owner itself).
func dynCopysetList(dp *dynPage, except HostID) []HostID {
	out := sim.SortedKeys(dp.copyset)
	if i, found := slices.BinarySearch(out, except); found {
		out = slices.Delete(out, i, i+1)
	}
	return out
}
