package dsm

// Copyset-based page recovery (crash-stop fault tolerance). When the
// failure detector declares a host dead, every surviving manager walks
// the pages it manages: pages the corpse merely read drop it from the
// copyset; pages the corpse *owned* are re-owned from a surviving copy
// — converting from the survivor's native representation when the
// manager is a different machine type, the heterogeneous twist on the
// classic scheme — and pages whose only copy died with the owner are
// declared lost, so later accesses fail with ErrPageLost instead of
// wedging. Recovery also runs lazily: a transaction that finds its
// recorded owner dead re-owns the page before serving.

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/proto"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// onHostDeath is registered with the failure detector. It must not
// block: it discards doomed partial reassemblies and spawns the
// recovery sweep as its own process.
func (m *Module) onHostDeath(dead HostID) {
	if m.ep.Crashed() || dead == m.id {
		return
	}
	// Partial reassemblies from the corpse will never complete; return
	// their pooled buffers now.
	m.ep.DropPartials(dead)
	m.k.Spawn(fmt.Sprintf("recover-%d-h%d", m.id, dead), func(p *sim.Proc) {
		m.recoverAfterDeath(p, dead)
	})
}

// recoverAfterDeath sweeps every page this host manages after dead's
// crash: drop the corpse from copysets, re-own the pages it owned.
func (m *Module) recoverAfterDeath(p *sim.Proc, dead HostID) {
	for _, page := range sim.SortedKeys(m.mgr) {
		if m.ep.Crashed() {
			p.Exit()
		}
		m.recoverEntry(p, page, dead)
	}
}

// recoverEntry drops dead from one managed page's copyset under the
// page's entry lock, and re-owns the page if dead owned it.
func (m *Module) recoverEntry(p *sim.Proc, page PageNo, dead HostID) {
	ent := m.mgr[page]
	ent.lock.P(p)
	// Deferred before the lock release so it runs after it (LIFO): the
	// checker audits the entry the sweep leaves behind.
	defer m.trace("host-death", page)
	defer ent.lock.V()
	delete(ent.copyset, dead)
	if !ent.lost && ent.owner == dead {
		m.protoCPU.Use(p, m.jittered(m.cfg.Params.ManagerProcess.Of(m.arch.Kind)))
		m.recoverPage(p, page, ent)
	}
}

// recoverPage re-owns one page whose recorded owner is dead. The caller
// holds ent.lock. On return either the page has a live owner holding a
// copy, or it is marked lost.
func (m *Module) recoverPage(p *sim.Proc, page PageNo, ent *mgrEntry) {
	dead := ent.owner
	delete(ent.copyset, dead)
	if m.cfg.Mutation == MutForgetRecovery {
		// Injected bug: the manager forgets to re-own — the page stays
		// wedged at its dead owner and every later access fails.
		return
	}
	// Self first: the manager itself may hold a surviving read copy.
	if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		ent.owner = m.id
		ent.copyset[m.id] = struct{}{}
		m.stats.PagesRecovered++
		m.trace("recover", page)
		return
	}
	for _, h := range m.recoveryCandidates(ent, dead) {
		resp, err := m.ep.Call(p, h, &proto.Message{Kind: proto.KindRecoverPage, Page: uint32(page)})
		if err != nil {
			continue // unreachable too; try the next candidate
		}
		if resp.Arg(0) == 0 {
			bufpool.Put(resp.TakeWire())
			delete(ent.copyset, h) // recorded but copyless: stale entry
			continue
		}
		if Access(resp.Arg(1)) == WriteAccess {
			// A surviving writable copy is the page, current by
			// definition: hand ownership to its holder without moving
			// any data.
			bufpool.Put(resp.TakeWire())
			clear(ent.copyset)
			ent.owner = h
			ent.copyset[h] = struct{}{}
			m.stats.PagesRecovered++
			m.trace("recover", page)
			return
		}
		m.installRecovered(p, page, resp)
		ent.owner = m.id
		ent.copyset[m.id] = struct{}{}
		m.stats.PagesRecovered++
		m.trace("recover", page)
		return
	}
	// No survivor holds a copy: the page died with its owner.
	ent.lost = true
	m.stats.PagesLost++
	m.trace("page-lost", page)
}

// reconcileSuspect settles an entry whose last transfer was never
// confirmed (awaitConfirm gave up on a live requester). The bookkeeping
// may be ahead of reality: the forwarding owner can have crashed after
// taking the serve order but before delivering, in which case the
// recorded requester never installed the page. The manager asks the
// unconfirmed requester whether it actually holds a copy (a probe — no
// data moves) and repairs the entry accordingly. The caller holds
// ent.lock.
func (m *Module) reconcileSuspect(p *sim.Proc, page PageNo, ent *mgrEntry) error {
	r := ent.suspectHost
	if r == m.id || m.liveness.Dead(r) {
		// Our own state is directly visible; a corpse's copies died with
		// it. Either way the dead-owner gate after us resolves ownership.
		ent.suspect = false
		if r != m.id {
			delete(ent.copyset, r)
		}
		return nil
	}
	resp, err := m.ep.Call(p, r, &proto.Message{
		Kind: proto.KindRecoverPage,
		Page: uint32(page),
		Args: []uint32{1}, // probe: report possession, send no data
	})
	if err != nil {
		return fmt.Errorf("manager %d reconciling page %d with host %d: %w", m.id, page, r, err)
	}
	has := resp.Arg(0) != 0
	bufpool.Put(resp.TakeWire())
	if has {
		// The transfer did land; only the confirmation was lost.
		ent.suspect = false
		m.trace("reconciled", page)
		return nil
	}
	// The transfer never landed. A read transfer only over-recorded the
	// copyset; an ownership transfer left the entry pointing at a host
	// that holds nothing — find the page a real home (or declare it
	// lost) exactly as if the recorded owner had died.
	delete(ent.copyset, r)
	if ent.owner == r {
		m.recoverPage(p, page, ent)
	}
	ent.suspect = false
	m.trace("reconciled", page)
	return nil
}

// recoveryCandidates lists the hosts to poll for a surviving copy:
// recorded copyset members first (they normally hold one), then every
// other live host — a copy can legitimately outlive the copyset record
// when a transfer aborted mid-crash. Order is deterministic.
func (m *Module) recoveryCandidates(ent *mgrEntry, dead HostID) []HostID {
	out := make([]HostID, 0, len(m.hosts))
	for _, h := range sim.SortedKeys(ent.copyset) {
		if h == m.id || h == dead || m.liveness.Dead(h) {
			continue
		}
		out = append(out, h)
	}
	for i := range m.hosts {
		h := HostID(i)
		if h == m.id || h == dead || m.liveness.Dead(h) {
			continue
		}
		if _, in := ent.copyset[h]; in {
			continue
		}
		out = append(out, h)
	}
	return out
}

// installRecovered installs a survivor's copy on the recovering
// manager, converting from the survivor's native representation when
// the machine types are incompatible (the same conversion a normal
// transfer performs). The recovered content is recorded as a synthetic
// write so the sequential-consistency trace stays coherent across the
// ownership gap.
func (m *Module) installRecovered(p *sim.Proc, page PageNo, resp *proto.Message) {
	lp := m.localPageFor(page)
	m.installImage(p, page, resp, ReadAccess, "fetch")
	if n := len(resp.Data); n > 0 {
		m.recordSC(p, sctrace.Write, m.traceClock(), Addr(int(page)*m.cfg.PageSize), lp.data[:n])
	}
	m.installed(p, page, resp)
}

// handleRecoverPage answers a recovering manager's poll: does this host
// hold a copy of the page, and with what right? A positive answer
// carries the page's allocated prefix in this host's native
// representation — unless the request is a probe, which wants
// possession only: Arg(0)=1 from suspect-entry reconciliation, Arg(0)=2
// from the dynamic recovery coordinator, which also asks whether this
// host owns the page. It takes no locks, deliberately: the polled host
// may itself be parked inside a page fault holding its local fault lock.
func (m *Module) handleRecoverPage(p *sim.Proc, req *proto.Message) {
	if m.ep.Crashed() {
		p.Exit()
	}
	page := PageNo(req.Page)
	probe := req.Arg(0)
	lp := m.local[page]
	if lp == nil || lp.access == NoAccess {
		m.ep.Reply(p, req, &proto.Message{
			Kind: proto.KindRecoverPageReply,
			Page: req.Page,
			Args: []uint32{0, 0},
		})
		return
	}
	if probe == 1 || probe == 2 {
		args := []uint32{1, uint32(lp.access), 0}
		if dp := m.dyn[page]; dp != nil && dp.owned {
			args[2] = 1
		}
		m.ep.Reply(p, req, &proto.Message{
			Kind: proto.KindRecoverPageReply,
			Page: req.Page,
			Args: args[:1+probe], // the ownership word answers the dynamic probe only
		})
		return
	}
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.OwnerProcess.Of(m.arch.Kind)))
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindRecoverPageReply,
		Page: req.Page,
		Args: []uint32{1, uint32(lp.access)},
		Data: m.servedPrefix(page, lp.data),
	})
}
