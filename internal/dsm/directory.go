package dsm

// The directory layer: who manages a page — who tracks its owner and
// copyset and through whom transfer requests pass (§3.1). The paper's
// implementation fixes each page's manager statically (page number mod
// cluster size); Li & Hudak's thesis also describes a centralized
// manager (all pages on one host) and a *dynamic distributed manager*
// where there is no manager at all: each host keeps a probable-owner
// hint per page and requests chase the hint chain to the true owner
// (dynamic.go). The replication engines (engine.go) fault through this
// interface, so the scheme is swappable without touching them.

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// Directory selects the manager-placement scheme.
type Directory int

const (
	// DirFixed distributes managers round-robin (page number mod cluster
	// size) — the paper's fixed distributed manager (§3.1) and the
	// default.
	DirFixed Directory = iota
	// DirCentral places every page's manager on host 0 — Li's
	// centralized manager.
	DirCentral
	// DirDynamic is Li & Hudak's dynamic distributed manager: no fixed
	// manager; each host keeps a probable owner per page and faults
	// forward along the hint chain to the real owner, compressing hints
	// as they go. Only defined for PolicyMRSW.
	DirDynamic
)

// String names the directory scheme.
func (d Directory) String() string {
	switch d {
	case DirFixed:
		return "fixed"
	case DirCentral:
		return "central"
	case DirDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Directory(%d)", int(d))
	}
}

// directory is the manager-placement scheme: it locates a page's
// manager and runs the host-side page-fault transaction that obtains a
// copy or ownership through it. Like an engine it states its own
// obligations — the records it keeps, their invariants, their hash
// section, the proto.Kind handlers it serves (registered by its
// constructor) — so the checker and the state hash iterate them without
// asking which scheme is running.
type directory interface {
	// home returns the page's manager host. Fixed schemes compute it;
	// the dynamic scheme has no manager and panics (it follows
	// probable-owner hints instead).
	home(page PageNo) HostID
	// fault obtains the page on this host with the requested right. It
	// runs under the page's local fault lock.
	fault(p *sim.Proc, page PageNo, write bool) error
	// allocOwned records first-touch ownership of a freshly allocated
	// page on this host (called on every host that keeps a zero-filled
	// writable copy at allocation time).
	allocOwned(page PageNo)
	// pages lists the pages the scheme keeps records for beyond the
	// module's manager table (the checker's whole-space sweep).
	pages() []PageNo
	// checkPage audits the scheme's ownership records for one page
	// against the live hosts holding it writable and holding it at all.
	checkPage(c *InvariantChecker, point string, page PageNo, writers, holders []HostID)
	// hashState folds the scheme's private records into a state
	// fingerprint, as its own section.
	hashState(put func(uint32))
}

// newDirectory builds the configured manager-placement scheme.
func newDirectory(m *Module) directory {
	if m.cfg.Directory == DirDynamic {
		return newDynamicDirectory(m)
	}
	m.ep.Handle(proto.KindGetPage, m.handleGetPage)
	m.ep.Handle(proto.KindGetPageWrite, m.handleGetPage)
	m.ep.Handle(proto.KindServeRequest, m.handleServeRequest)
	m.ep.HandleEvent(proto.KindOwnerUpdate, remoteop.EventHandler{Reply: m.handleOwnerUpdate})
	return &fixedDirectory{m: m, central: m.cfg.Directory == DirCentral}
}

// fixedDirectory is the static-placement family: every host can compute
// any page's manager locally, so a fault is one request to the manager
// (which owns the transfer transaction, protocol.go).
type fixedDirectory struct {
	m       *Module
	central bool
}

func (d *fixedDirectory) home(page PageNo) HostID {
	if d.central {
		return 0
	}
	return HostID(int(page) % len(d.m.hosts))
}

func (d *fixedDirectory) fault(p *sim.Proc, page PageNo, write bool) error {
	m := d.m
	if m.manager(page) == m.id {
		return m.localManagerFault(p, page, write)
	}
	return m.remoteFault(p, page, write)
}

func (d *fixedDirectory) allocOwned(PageNo) {}

// The fixed schemes' records are the module's manager table, which the
// checker sweeps and the state hash covers for every configuration.
func (d *fixedDirectory) pages() []PageNo          { return nil }
func (d *fixedDirectory) hashState(func(v uint32)) {}

// checkPage asserts Li's manager-side invariants (2–4 of check.go). They
// are asserted only when the page is quiescent: its transfer lock free,
// no confirmation outstanding.
func (d *fixedDirectory) checkPage(c *InvariantChecker, point string, page PageNo, writers, holders []HostID) {
	mgrMod := c.byID(d.home(page))
	if mgrMod == nil || mgrMod.ep.Crashed() {
		return // the manager's records died with it (unavailable but isolated)
	}
	ent := mgrMod.mgr[page]
	if ent == nil {
		return // never faulted through its manager yet
	}
	if ent.lock.Count() == 0 {
		return // transfer transaction in flight: transient states allowed
	}
	if ent.suspect {
		// The last transfer was never confirmed: the entry is known to be
		// possibly ahead of reality until the next transaction reconciles
		// it against the unconfirmed requester.
		return
	}
	if ent.lost {
		// A lost page must really be gone: any surviving copy means the
		// manager gave up while a recovery source existed.
		for _, h := range holders {
			c.report(point, page, "page is declared lost but host %d still holds a copy", h)
		}
		return
	}

	owner := c.byID(ent.owner)
	if owner == nil {
		c.report(point, page, "manager %d records unknown owner %d", mgrMod.id, ent.owner)
		return
	}
	if owner.ep.Crashed() || mgrMod.deadHost(ent.owner) {
		return // owner crashed: state is transient until the recovery sweep
	}
	c.checkRecords(point, page, "manager", mgrMod.id, owner, ent.copyset, writers, holders)
}

// checkRecords asserts invariants 2–4 against a page's records, as the
// directory scheme's record keeper (the fixed manager, or the dynamic
// owner itself) holds them: the recorded owner holds a copy, any writer
// is that owner, and every other holder is in the copyset. role and
// keeper name the record keeper in the messages.
func (c *InvariantChecker) checkRecords(point string, page PageNo, role string, keeper HostID, owner *Module, copyset map[HostID]struct{}, writers, holders []HostID) {
	if owner.Access(page) == NoAccess {
		c.report(point, page, "owner %d holds no copy", owner.id)
	}
	for _, w := range writers {
		if w != owner.id {
			c.report(point, page, "host %d holds the writable copy but %s %d records owner %d",
				w, role, keeper, owner.id)
		}
	}
	for _, h := range holders {
		if h == owner.id {
			continue
		}
		if _, in := copyset[h]; !in {
			c.report(point, page, "host %d holds a copy but is neither owner nor in the copyset %v (stale copy — missed invalidation?)",
				h, sim.SortedKeys(copyset))
		}
	}
}
