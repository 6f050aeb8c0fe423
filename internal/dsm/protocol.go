package dsm

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// PageReply flag bits (Args[0]).
const (
	// flagData marks a reply carrying the page body.
	flagData = 1 << iota
	// flagUpgrade marks a write grant without data: the requester's
	// resident read copy is current and may simply be upgraded.
	flagUpgrade
	// flagLost marks a reply for a page whose only copy died with its
	// crashed owner: the fault fails with ErrPageLost.
	flagLost
	// flagRetry tells a dynamic-directory requester its forwarded
	// request hit a crashed hop: recover a route to the owner and
	// re-issue the fault (dynamic.go). Never set on fixed-directory
	// replies.
	flagRetry
)

// faultRetries bounds how many times a fault whose transaction aborted
// mid-crash is re-issued before the page is reported unreachable.
const faultRetries = 3

// EnsureAccess makes [addr, addr+n) accessible with the given right,
// faulting in whatever is missing. Faulting granularity is the host's
// native VM page: under the smallest page size algorithm a Sun fault
// fetches every missing 1 KB DSM page of the 8 KB VM page (§2.4).
//
// A zero-length span needs no access and succeeds immediately; a
// negative length or a span reaching past the shared address space
// (including one whose addr+n wraps the 32-bit address) is rejected
// with an error before any protocol traffic.
//
// Under failure detection, a fault that cannot complete because of a
// host crash returns a typed error: ErrHostDown when the page's
// manager (or every possible source) has crashed, ErrPageLost when the
// page's only copy died with its owner.
//
// The loop re-checks after fetching because a page obtained early in a
// multi-page fault can be stolen while later ones are fetched; repeated
// iterations under contention are precisely the page-thrashing behaviour
// studied in §3.3.
func (m *Module) EnsureAccess(p *sim.Proc, addr Addr, n int, write bool) error {
	return m.ensureAccess(p, addr, n, write, m.faultPage)
}

// ensureAccess is EnsureAccess with the per-page fault as a parameter:
// the fault accounting (what is missing, one native VM fault charged,
// each missing page obtained) is the same for every engine that keeps
// pages resident; how one page is obtained is the engine's.
func (m *Module) ensureAccess(p *sim.Proc, addr Addr, n int, write bool, fault func(p *sim.Proc, page PageNo, write bool) error) error {
	m.exitIfCrashed(p)
	first, last, err := m.requiredPages(addr, n)
	if err != nil {
		return err
	}
	for {
		var missing []PageNo
		for pg := first; pg <= last; pg++ {
			if m.hasAccess(pg, write) {
				continue
			}
			// A page of the VM-page group that the span itself does not
			// touch and nobody has allocated has nothing to fetch. Inside
			// the span a never-allocated page stays required: that access
			// must keep failing loudly.
			if _, allocated := m.meta[pg]; !allocated && (pg < m.PageOf(addr) || pg > m.PageOf(addr+Addr(n)-1)) {
				continue
			}
			missing = append(missing, pg)
		}
		if len(missing) == 0 {
			return nil
		}
		// One native VM fault: handler invocation, local page table
		// processing, request transmission (Table 1).
		if write {
			m.stats.WriteFaults++
			m.trace("write-fault", missing[0])
			p.Sleep(m.jittered(m.cfg.Params.FaultWrite.Of(m.arch.Kind)))
		} else {
			m.stats.ReadFaults++
			m.trace("read-fault", missing[0])
			p.Sleep(m.jittered(m.cfg.Params.FaultRead.Of(m.arch.Kind)))
		}
		for _, pg := range missing {
			if err := fault(p, pg, write); err != nil {
				return err
			}
		}
	}
}

// requiredPages returns the range [first, last] of DSM pages that must
// be resident to touch [addr, addr+n), expanded to whole native-VM-page
// groups; a zero-length span gives the empty range first > last. The
// span is validated in 64-bit arithmetic: Addr is 32 bits, so addr+n-1
// computed in Addr width can wrap around and silently turn an
// out-of-range access into a fetch of low pages.
func (m *Module) requiredPages(addr Addr, n int) (first, last PageNo, err error) {
	if n < 0 {
		return 0, 0, fmt.Errorf("access at %d with negative length %d", addr, n)
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(m.cfg.SpaceSize) {
		return 0, 0, fmt.Errorf("access [%d,%d) beyond the %d-byte shared space", addr, end, m.cfg.SpaceSize)
	}
	if n == 0 {
		return 1, 0, nil
	}
	g := PageNo(m.groupSize())
	first = m.PageOf(addr) / g * g
	// Group expansion may reach past the end of the space; the space is
	// not required to be a whole number of VM-page groups, so clamp.
	last = min(m.PageOf(Addr(end-1))/g*g+g-1, PageNo(m.NumPages()-1))
	return first, last, nil
}

// callFailed wraps a protocol call failure with the step that made the
// call. A call that exhausted its retransmissions is an ordinary outcome
// of the unreliable network, with or without a failure detector: the
// requester returns it (faultPage retries it a bounded number of times
// before reporting ErrHostDown), and a fire-and-forget sender drops it
// through bestEffort.
func (m *Module) callFailed(err error, format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, err)...)
}

// hostFailed is callFailed for a call to host that no other host can
// answer in its place: once the detector has declared host dead, the
// error is ErrHostDown — the range host serves is unavailable but
// isolated.
func (m *Module) hostFailed(err error, host HostID, format string, args ...any) error {
	err = m.callFailed(err, format, args...)
	if errors.Is(err, remoteop.ErrPeerDead) {
		return hostDownErr(host, "%v", err)
	}
	return err
}

// faultPage obtains one DSM page with the requested right. Concurrent
// threads on the same host faulting on the same page are serialized so
// the protocol runs once. A failed attempt (a call that ran out of
// retransmissions, a transaction aborted by a mid-transfer crash) is
// retried a bounded number of times, with or without failure
// detection, before the page is reported down. Capped exponential
// backoff separates the attempts: the first retry waits one request
// timeout (detection and recovery need at least that long to
// converge), later ones double it up to the blocking retry interval, so
// a recovery that takes several suspicion periods is met with patience
// rather than a premature ErrHostDown. The jitter desynchronizes hosts
// that faulted on the same page in the same instant; it comes from the
// seeded RNG and is drawn only on this path, so fault-free runs stay
// bit-identical.
func (m *Module) faultPage(p *sim.Proc, page PageNo, write bool) error {
	l := m.faultLockFor(page)
	l.P(p)
	// Deferred before the lock release so it runs after it (LIFO): the
	// checker sees the page with the fault fully serviced.
	defer m.trace("fault-serviced", page)
	defer l.V()
	backoff := sim.Duration(m.cfg.Params.RequestTimeout)
	for attempt := 0; ; attempt++ {
		if m.hasAccess(page, write) {
			return nil // another local thread fetched it meanwhile
		}
		err := m.dir.fault(p, page, write)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrPageLost) || errors.Is(err, ErrHostDown) {
			return err
		}
		if attempt >= faultRetries {
			return fmt.Errorf("%w: page %d fault kept failing: %v", ErrHostDown, page, err)
		}
		backoff = m.retryPause(p, backoff)
	}
}

// remoteFault is the requester side when the manager is elsewhere: send
// the request to the manager; the reply arrives from the manager (an
// upgrade grant) or, forwarded, from the owner (the page body). After
// installation the manager is asynchronously told the transfer is
// complete so it can admit the next transaction for the page.
func (m *Module) remoteFault(p *sim.Proc, page PageNo, write bool) error {
	kind := proto.KindGetPage
	if write {
		kind = proto.KindGetPageWrite
	}
	mgrHost := m.manager(page)
	resp, err := m.ep.Call(p, mgrHost, &proto.Message{Kind: kind, Page: uint32(page)})
	if err != nil {
		return m.hostFailed(err, mgrHost, "host %d page %d fault", m.id, page)
	}
	if resp.Arg(0)&flagLost != 0 {
		bufpool.Put(resp.TakeWire())
		return pageLostErr(page)
	}
	m.installBody(p, page, resp, write)
	m.k.Spawn(fmt.Sprintf("confirm-%d-p%d", m.id, page), func(cp *sim.Proc) {
		_, err := m.ep.Call(cp, mgrHost, &proto.Message{Kind: proto.KindOwnerUpdate, Page: uint32(page)})
		// A manager that does not acknowledge the confirmation died (the
		// recovery sweep rebuilds its successor state) or is cut off
		// (awaitConfirm decides what its open transaction does). The
		// page is installed here either way.
		bestEffort(err)
	})
	return nil
}

// localManagerFault is the requester side when this host is the page's
// manager: the owner lookup is a local page table access (Table 4's
// R/M→O row has no manager message cost).
func (m *Module) localManagerFault(p *sim.Proc, page PageNo, write bool) error {
	ent := m.mgrEntryFor(page)
	ent.lock.P(p)
	defer ent.lock.V()
	// Creating the manager entry makes this host the initial owner of
	// the zero-filled page with write access (Li's initialization), so
	// the first touch of a self-managed page is satisfied right here.
	if m.hasAccess(page, write) {
		return nil
	}
	if err := m.settle(p, page, ent); err != nil {
		return err
	}
	if m.hasAccess(page, write) {
		return nil // recovery installed exactly what this fault needed
	}
	if write {
		hasCopy := m.hasAccess(page, false)
		targets := m.invalidationTargets(ent, m.id, hasCopy)
		if err := m.sendInvalidations(p, page, targets); err != nil {
			return err
		}
		if ent.owner == m.id || hasCopy {
			m.upgradeLocal(p, page)
		} else {
			// The entry lock stays held across the call: it lives only on
			// the page's one static manager, which never calls itself.
			resp, err := m.ep.Call(p, ent.owner, &proto.Message{Kind: proto.KindGetPageWrite, Page: uint32(page)})
			if err != nil {
				return m.callFailed(err, "manager %d fetching page %d from owner %d", m.id, page, ent.owner)
			}
			m.installBody(p, page, resp, true)
		}
		ent.owner = m.id
		clear(ent.copyset)
	} else {
		src := m.readSource(ent, m.id)
		if src == m.id {
			// Unreachable while invariant 3 holds (check.go: the owner
			// always holds a copy), and this host holds none.
			panic(fmt.Sprintf("dsm: manager %d owns page %d but holds no copy", m.id, page))
		}
		// The entry lock stays held across the call: it lives only on
		// the page's one static manager, which never calls itself.
		resp, err := m.ep.Call(p, src, &proto.Message{Kind: proto.KindGetPage, Page: uint32(page)})
		if err != nil {
			return m.callFailed(err, "manager %d fetching page %d from %d", m.id, page, src)
		}
		m.installBody(p, page, resp, false)
		ent.copyset[m.id] = struct{}{}
	}
	return nil
}

// upgradeLocal raises this host's resident copy of the page to writable
// in place, once every other copy is invalidated.
func (m *Module) upgradeLocal(p *sim.Proc, page PageNo) {
	m.localPageFor(page).access = WriteAccess
	m.stats.Upgrades++
	p.Sleep(m.jittered(m.cfg.Params.InstallCost.Of(m.arch.Kind)))
}

// handleGetPage serves KindGetPage and KindGetPageWrite. On the page's
// manager it runs the transfer transaction; on any other host it is a
// forwarded request to the owner (or, for reads, to a same-type holder).
func (m *Module) handleGetPage(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	page := PageNo(req.Page)
	write := req.Kind == proto.KindGetPageWrite
	if m.manager(page) != m.id {
		// A direct request from the page's manager (the R==M fast
		// path): serve straight back to it.
		bestEffort(m.serveCopy(p, page, write, HostID(req.From), req.ReqID))
		return
	}
	requester := HostID(req.From)
	ent := m.mgrEntryFor(page)
	ent.lock.P(p)
	// Deferred before the lock release so it runs after it (LIFO): the
	// checker audits the quiescent state each transfer leaves behind.
	defer m.trace("transfer-complete", page)
	defer ent.lock.V()
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.ManagerProcess.Of(m.arch.Kind)))
	if err := m.settle(p, page, ent); err != nil {
		if errors.Is(err, ErrPageLost) {
			// Redeem the requester's call with a lost marker so the fault
			// fails fast with ErrPageLost instead of timing out.
			bestEffort(m.deliverFlag(p, requester, page, flagLost, req.ReqID))
		}
		return // otherwise the requester times out and re-faults
	}
	ent.confirmed = false
	var err error
	if write {
		err = m.writeTransaction(p, req, page, ent, requester)
	} else {
		err = m.readTransaction(p, req, page, ent, requester)
	}
	if err != nil {
		// A host died mid-transaction: abort without touching the
		// bookkeeping; the requester times out and re-faults after
		// detection and recovery converge.
		return
	}
	if m.awaitConfirm(p, &ent.pageTxn, requester) {
		ent.suspect = true
		ent.suspectHost = requester
	}
}

// settle brings a manager entry up to date before a transaction trusts
// it: an unconfirmed last transfer is reconciled with its requester, and
// a dead recorded owner is replaced by a surviving copy (recovery.go). A
// page that turns out lost fails with ErrPageLost. The caller holds
// ent.lock.
func (m *Module) settle(p *sim.Proc, page PageNo, ent *mgrEntry) error {
	if ent.suspect {
		if err := m.reconcileSuspect(p, page, ent); err != nil {
			return err
		}
	}
	if !ent.lost && ent.owner != m.id && m.deadHost(ent.owner) {
		m.recoverPage(p, page, ent)
	}
	if ent.lost {
		return pageLostErr(page)
	}
	return nil
}

func (m *Module) readTransaction(p *sim.Proc, req *proto.Message, page PageNo, ent *mgrEntry, requester HostID) error {
	src := m.readSource(ent, requester)
	if src == m.id {
		if err := m.serveCopy(p, page, false, requester, req.ReqID); err != nil {
			return err
		}
	} else {
		p.Sleep(m.cfg.Params.ForwardCost.Of(m.arch.Kind))
		if err := m.forwardServe(p, src, page, false, requester, req.ReqID); err != nil {
			return err
		}
	}
	if m.cfg.Mutation == MutDropCopyset {
		return nil // injected bug: the new reader is never invalidated
	}
	ent.copyset[requester] = struct{}{}
	return nil
}

// forwardServe reliably hands the serving job to src: a ServeRequest
// call that src acknowledges on receipt (it then delivers the page to
// the requester with its own reliable call). Unlike a one-way forward,
// a lost hop is retransmitted rather than deadlocking the transaction.
func (m *Module) forwardServe(p *sim.Proc, src HostID, page PageNo, write bool, requester HostID, origReqID uint32) error {
	w := uint32(0)
	if write {
		w = 1
	}
	if _, err := m.ep.Call(p, src, &proto.Message{
		Kind: proto.KindServeRequest,
		Page: uint32(page),
		Args: []uint32{uint32(requester), origReqID, w},
	}); err != nil {
		return m.callFailed(err, "manager %d forwarding page %d to %d", m.id, page, src)
	}
	return nil
}

func (m *Module) writeTransaction(p *sim.Proc, req *proto.Message, page PageNo, ent *mgrEntry, requester HostID) error {
	requesterHasCopy := ent.owner == requester
	if _, ok := ent.copyset[requester]; ok {
		requesterHasCopy = true
	}
	targets := m.invalidationTargets(ent, requester, requesterHasCopy)
	if err := m.sendInvalidations(p, page, targets); err != nil {
		return err
	}
	// A failed handoff is committed all the same where the requester may
	// hold the page: the transaction then aborts with the error.
	var err error
	switch {
	case requesterHasCopy:
		// The requester's resident copy is current: grant an upgrade
		// without a transfer (invalidations above removed all others).
		// Should the grant never land, the invalidation round already
		// destroyed every other copy (the old owner's included), so the
		// requester's resident copy IS the page now: an entry left
		// naming the old owner would name one who holds nothing. A live
		// requester re-faults and upgrades again; a dead one is re-owned
		// or declared lost by the recovery sweep.
		err = m.deliverFlag(p, requester, page, flagUpgrade, req.ReqID)
	case ent.owner == m.id:
		err = m.serveCopy(p, page, true, requester, req.ReqID)
		if err != nil && !m.deadHost(requester) {
			return err // the transfer never happened; this host keeps the page
		}
		// A dead requester may have installed the transfer before its
		// acknowledgement was lost (see serveCopy, which drops the
		// possibly-stale local frame in this case). The entry names the
		// corpse and the recovery sweep re-owns or declares the page
		// lost, instead of leaving this host as the recorded owner of a
		// frame it no longer holds — or worse, of stale bytes.
	default:
		p.Sleep(m.cfg.Params.ForwardCost.Of(m.arch.Kind))
		if err := m.forwardServe(p, ent.owner, page, true, requester, req.ReqID); err != nil {
			return err
		}
	}
	m.commitOwner(ent, requester)
	return err
}

// commitOwner records that ownership of the page left for requester,
// whose copy is now the only one.
func (m *Module) commitOwner(ent *mgrEntry, requester HostID) {
	if m.cfg.Mutation != MutStaleOwner {
		// Injected bug when skipped: the owner field keeps pointing at
		// the previous owner, whose copy just left with the transfer.
		ent.owner = requester
	}
	clear(ent.copyset)
	ent.copyset[requester] = struct{}{}
}

// invalidationTargets computes who must drop their copy before a write
// by requester proceeds: every copyset member except the requester and
// except the owner (whose copy is consumed by the ownership transfer) —
// unless the requester upgrades in place, in which case the old owner's
// copy must be invalidated explicitly too.
func (m *Module) invalidationTargets(ent *mgrEntry, requester HostID, requesterUpgrades bool) []HostID {
	targets := slices.DeleteFunc(sim.SortedKeys(ent.copyset), func(h HostID) bool {
		return h == requester || h == ent.owner
	})
	if requesterUpgrades && ent.owner != requester {
		targets = append(targets, ent.owner)
		slices.Sort(targets) // the owner takes its place in host order
	}
	return targets
}

// sendInvalidations invalidates every target's copy of page and
// collects every acknowledgement (write-invalidate, §1): one copyset
// round. The local copy, if targeted, is dropped directly.
func (m *Module) sendInvalidations(p *sim.Proc, page PageNo, targets []HostID) error {
	if m.cfg.Mutation == MutSkipInvalidation {
		return nil // injected coherence bug: readers keep stale copies
	}
	remote := targets[:0:0]
	for _, h := range targets {
		if h == m.id {
			if lp := m.local[page]; lp != nil {
				lp.access = NoAccess
			}
			continue
		}
		remote = append(remote, h)
	}
	err := m.copysetRound(p, remote, &m.stats.InvalidationsSent, func() *proto.Message {
		return &proto.Message{Kind: proto.KindInvalidate, Page: uint32(page)}
	})
	if err != nil {
		return m.callFailed(err, "host %d invalidating page %d", m.id, page)
	}
	return nil
}

// multicastBitmap sends req to targets named in a host bitmap payload.
// It is still one physical broadcast (one frame per network segment
// touched) instead of a per-member unicast storm: the multicast-tree
// path that makes 1024-host copysets affordable. Pooled staging:
// CallMulticast re-encodes from Data on every retransmission but is
// done with it once acknowledged.
func (m *Module) multicastBitmap(p *sim.Proc, targets []HostID, req *proto.Message) error {
	bitmap := bufpool.Get((len(m.hosts) + 7) / 8)
	defer bufpool.Put(bitmap)
	clear(bitmap)
	for _, h := range targets {
		bitmap[int(h)/8] |= 1 << (uint(h) % 8)
	}
	req.Data = bitmap
	return m.ep.CallMulticast(p, targets, req)
}

// copysetRound sends the request mk builds to every target and collects
// every acknowledgement: the write-invalidate round and the write-update
// push are this one round. By default one physical broadcast frame
// reaches all hosts and the targets answer — "multicast is used for
// write invalidation" (§2.2). The targets travel after the request's
// own arguments, so bystanders stay silent (addressed); a target list
// too long for the argument list travels as a host bitmap in the
// payload when the request has none of its own, and otherwise (or under
// the unicast ablation) the round is one call per target. It counts the
// requests it sends into sent.
//
// Under failure detection, targets the detector has declared dead are
// skipped: their copies died with them. A round already in flight
// ignores the detector (CallMulticast does not ask it), so a target
// that dies mid-round fails the round, which is then sent again to the
// survivors. The error of a round no death explains is returned
// unclassified; the caller passes it to callFailed.
func (m *Module) copysetRound(p *sim.Proc, targets []HostID, sent *int, mk func() *proto.Message) error {
	for {
		targets = slices.DeleteFunc(targets, m.deadHost)
		if len(targets) == 0 {
			return nil
		}
		*sent += len(targets)
		req := mk()
		fits := len(req.Args)+len(targets) <= proto.MaxArgs
		var err error
		switch {
		case m.cfg.UnicastInvalidate || !fits && len(req.Data) > 0:
			_, err = m.ep.CallAll(p, targets, func(HostID) *proto.Message { return mk() })
		case fits:
			req.Args = slices.Grow(req.Args, len(targets))
			for _, h := range targets {
				req.Args = append(req.Args, uint32(h))
			}
			err = m.ep.CallMulticast(p, targets, req)
		default:
			err = m.multicastBitmap(p, targets, req)
		}
		if err == nil || !slices.ContainsFunc(targets, m.deadHost) {
			return err
		}
	}
}

// addressed reports whether a copyset round's request names this host.
// A broadcast frame reaches every host on the medium: the targets follow
// the request's own arguments, or, when bitmap is set and the request
// has no arguments beyond its own, fill the payload as a host bitmap.
// A request naming no targets was sent to this host alone.
func (m *Module) addressed(req *proto.Message, own int, bitmap bool) bool {
	if len(req.Args) > own {
		return slices.Contains(req.Args[own:], uint32(m.id))
	}
	if h := int(m.id); bitmap && len(req.Data) > 0 {
		return h/8 < len(req.Data) && req.Data[h/8]&(1<<(uint(h)%8)) != 0
	}
	return true
}

// readSource picks the host to serve a read copy: the owner, or — with
// PreferSameKindSource — a copyset member of the requester's machine
// type, which avoids a data conversion (§2.3).
func (m *Module) readSource(ent *mgrEntry, requester HostID) HostID {
	src := ent.owner
	if !m.cfg.PreferSameKindSource {
		return src
	}
	want := m.hosts[requester].Kind
	if m.hosts[src].Kind == want {
		return src
	}
	for _, h := range sim.SortedKeys(ent.copyset) {
		if h == requester || m.hosts[h].Kind != want {
			continue
		}
		if m.deadHost(h) {
			break // only the lowest same-kind member is a candidate
		}
		return h
	}
	return src
}

// serveCopy sends this host's resident copy of the page to the original
// requester as a reliable PageDeliver call that redeems the requester's
// outstanding fault request. For writes, ownership leaves with the data
// and the local copy is invalidated; for reads, the local copy is
// downgraded to read-only (MRSW). If the delivery fails because the
// requester crashed, the previous access right is restored — the
// transfer never happened, and the copy survives for recovery.
func (m *Module) serveCopy(p *sim.Proc, page PageNo, write bool, requester HostID, origReqID uint32) error {
	lp := m.local[page]
	if lp == nil || lp.access == NoAccess {
		if m.liveness != nil {
			// An aborted transfer or a crash-truncated invalidation can
			// leave the manager pointing here without a copy; let the
			// requester time out and re-fault after recovery.
			return fmt.Errorf("host %d asked to serve page %d it does not hold", m.id, page)
		}
		// Unreachable without crashes: requests are routed to the
		// recorded owner, which holds a copy (invariant 3), or to a
		// copyset member, which keeps its copy until the invalidation
		// that also drops it from the copyset.
		panic(fmt.Sprintf("dsm: host %d asked to serve page %d it does not hold (access %v)",
			m.id, page, m.Access(page)))
	}
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.OwnerProcess.Of(m.arch.Kind)))
	// Staged in a pooled buffer: deliver blocks until the requester has
	// acknowledged (every retransmission re-encodes from it), so it is
	// recycled when serveCopy returns.
	data := bufpool.Get(m.meta[page].used)
	defer bufpool.Put(data)
	copy(data, lp.data[:len(data)])
	prev := lp.access
	switch {
	case m.cfg.Mutation == MutDoubleWriterGrant:
		// Injected bug: keep the local copy (and right) the transfer
		// should have consumed — two writable copies can now coexist.
	case write:
		lp.access = NoAccess
	default:
		lp.access = ReadAccess
	}
	err := m.deliver(p, requester, &proto.Message{
		Kind: proto.KindPageDeliver,
		Page: uint32(page),
		Args: []uint32{flagData, origReqID},
		Data: data,
	})
	if err != nil {
		if write && m.cfg.Mutation != MutDoubleWriterGrant && m.deadHost(requester) {
			// A failed WRITE delivery to a requester now declared dead is
			// ambiguous: only the final acknowledgement may have been lost,
			// in which case the requester installed the page and wrote to
			// it before dying. This frame may therefore be stale —
			// restoring it would let later local reads serve old bytes as
			// current. Drop it and let recovery re-own from a surviving
			// copy or declare the page lost.
			lp.access = NoAccess
			return err
		}
		lp.access = prev // the transfer never completed; keep the copy
		return err
	}
	m.stats.PagesServed++
	m.trace("serve", page)
	return nil
}

// bestEffort consumes the error of a fire-and-forget reply toward a
// requester. A requester this host cannot reach recovers on its own —
// it times out and re-faults, or it is itself dead and nothing is
// waiting — so the sender has no handling to add. Funnelling such
// drops through one named sink documents each site by construction
// instead of a per-line vet:ignore err-drop.
func bestEffort(error) {}

// deliverFlag redeems the requester's fault request reqID with a
// bodyless delivery: flagUpgrade, flagLost or flagRetry.
func (m *Module) deliverFlag(p *sim.Proc, requester HostID, page PageNo, flag, reqID uint32) error {
	return m.deliver(p, requester, &proto.Message{
		Kind: proto.KindPageDeliver,
		Page: uint32(page),
		Args: []uint32{flag, reqID},
	})
}

// deliver sends a PageDeliver call and waits for its acknowledgement.
func (m *Module) deliver(p *sim.Proc, requester HostID, msg *proto.Message) error {
	if _, err := m.ep.Call(p, requester, msg); err != nil {
		return m.callFailed(err, "host %d delivering page %d to %d", m.id, msg.Page, requester)
	}
	return nil
}

// handleServeRequest is the serving host's side of a manager forward:
// acknowledge receipt (so the manager's call completes), then deliver
// the page to the requester.
func (m *Module) handleServeRequest(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindServeAck, Page: req.Page})
	bestEffort(m.serveCopy(p, PageNo(req.Page), req.Arg(2) == 1, HostID(req.Arg(0)), req.Arg(1)))
}

// handlePageDeliver receives a page body (or upgrade grant) on the
// requester: redeem the original fault request and acknowledge. A
// redeemed body is consumed (and its wire buffer recycled) by
// installBody on the faulting thread; a stale or duplicate delivery is
// recycled here.
func (m *Module) handlePageDeliver(req *proto.Message) *proto.Message {
	// A delivery in flight when this host crashed must not land: redeeming
	// it would wake the faulting thread, which would install the page and
	// let application writes execute on a dead machine — visible to the
	// trace but unrecoverable by the survivors (the serving owner sees the
	// failed ack and keeps its copy).
	if m.ep.Crashed() {
		return nil
	}
	if !m.ep.Redeem(req.Arg(1), req) {
		bufpool.Put(req.TakeWire())
	}
	return &proto.Message{Kind: proto.KindPageDeliverAck, Page: req.Page}
}

// installBody applies a PageReply on the requester: an upgrade grants
// the write right in place, a body takes the image receive step; either
// way the installation cost is charged.
func (m *Module) installBody(p *sim.Proc, page PageNo, resp *proto.Message, write bool) {
	flags := resp.Arg(0)
	lp := m.localPageFor(page)
	switch {
	case flags&flagUpgrade != 0:
		lp.access = WriteAccess
		m.stats.Upgrades++
		m.trace("upgrade", page)
	case flags&flagData != 0:
		access := ReadAccess
		if write {
			access = WriteAccess
		}
		m.installImage(p, page, resp, access, "fetch")
	default:
		// Unreachable: every page reply is built with flagData or
		// flagUpgrade, callers act on flagLost and flagRetry before
		// installing, and a flag word damaged in flight fails the frame
		// checksum.
		panic(fmt.Sprintf("dsm: page reply for %d with neither data nor upgrade", page))
	}
	m.installed(p, page, resp)
}

// confirmPatience bounds how many suspicion-timeout rounds a transaction
// waits for the requester's installation confirmation. A live requester
// can legitimately never confirm: under the fixed manager the
// *forwarding owner* may have crashed after acknowledging the serve
// order but before delivering the page, so the requester never
// installed anything and is itself waiting — on the very transaction
// lock this wait holds. Waiting forever would deadlock the page.
const confirmPatience = 3

// awaitConfirm parks a transaction until the requester reports the copy
// installed (confirm), keeping per-page transactions strictly serial.
// Under failure detection the park carries a timeout: a requester that
// crashes mid-transfer would otherwise wedge the page's transaction
// lock forever, blocking recovery itself. It reports gaveUp when the
// requester is alive but confirmPatience rounds passed: the fixed
// manager then marks its entry suspect for the next transaction to
// reconcile (recovery.go); the dynamic owner has the requester in its
// copyset already, so a later write still invalidates it.
func (m *Module) awaitConfirm(p *sim.Proc, t *pageTxn, requester HostID) (gaveUp bool) {
	for rounds := 0; !t.confirmed; rounds++ {
		if m.deadHost(requester) {
			return false // requester died mid-transfer; recovery rebuilds the records
		}
		if m.liveness != nil && rounds >= confirmPatience {
			return true
		}
		t.confirmW = p.PrepareWait()
		t.confirmArmed = true
		if m.liveness != nil {
			p.ParkTimeout(m.cfg.Params.SuspicionTimeout)
		} else {
			p.Park()
		}
		t.confirmArmed = false
	}
	return false
}

// confirm records the requester's installation confirmation and wakes
// the transaction parked in awaitConfirm, if one is. woke is false for a
// confirmation that arrived after its transaction stopped waiting.
func (m *Module) confirm(t *pageTxn) (woke bool) {
	t.confirmed = true
	if !t.confirmArmed {
		return false
	}
	t.confirmArmed = false
	m.k.Wake(t.confirmW, sim.WakeSignal)
	return true
}

// handleOwnerUpdate receives the requester's completion confirmation.
func (m *Module) handleOwnerUpdate(req *proto.Message) *proto.Message {
	page := PageNo(req.Page)
	if m.manager(page) == m.id {
		ent := m.mgrEntryFor(page)
		m.confirm(&ent.pageTxn)
		// A confirmation that arrives after the transaction gave up
		// waiting settles the doubt: the transfer did land.
		ent.suspect = false
		m.trace("owner-confirmed", page)
	}
	return &proto.Message{Kind: proto.KindOwnerUpdateAck, Page: req.Page}
}

// invalidateCharge prices an invalidation on the protocol CPU. Hosts a
// broadcast invalidation does not address are bystanders who heard the
// frame on the shared medium and stay silent.
func (m *Module) invalidateCharge(req *proto.Message) (*sim.Resource, sim.Duration, bool) {
	if !m.addressed(req, 0, true) {
		return nil, 0, false
	}
	return m.protoCPU, m.jittered(m.cfg.Params.InvalidateProcess.Of(m.arch.Kind)), true
}

// handleInvalidate discards the local copy of a page (write-invalidate)
// once invalidateCharge is paid.
func (m *Module) handleInvalidate(req *proto.Message) *proto.Message {
	if lp := m.local[PageNo(req.Page)]; lp != nil {
		lp.access = NoAccess
	}
	m.stats.InvalidationsReceived++
	m.trace("invalidate", PageNo(req.Page))
	if m.cfg.Mutation == MutLostAck {
		return nil // injected bug: the copy is gone but the ack never leaves
	}
	return &proto.Message{Kind: proto.KindInvalidateAck, Page: req.Page}
}
