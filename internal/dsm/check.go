package dsm

// Runtime invariant checking for Li's MRSW write-invalidate protocol.
//
// The protocol's correctness argument (§2 of the paper, and the
// machine-checkable SC invariants of Ekström & Haridi's compositional
// DSM proof) rests on a handful of global invariants that must hold
// whenever a page is quiescent — no transfer transaction in flight:
//
//   1. Unique writer: at most one host holds WriteAccess to a page.
//   2. The writer, if any, is the manager's recorded owner.
//   3. The owner always holds a copy (read or write).
//   4. Every holder is recorded: a host holding a copy is the owner or
//      a copyset member — a stale copy surviving an invalidation is the
//      classic silent coherence bug.
//   5. Allocation metadata is sane: the allocated prefix fits the page
//      and is a whole number of elements, so a conversion on migration
//      covers exactly the allocated data.
//
// An InvariantChecker observes every Module of a cluster and asserts
// these invariants at every traced transition: Module.trace, the
// module's one observation tap, hands each event (a fault taken, a
// page fetched or installed, an invalidation processed, a transfer
// confirmed, an update sequenced, an allocation distributed, …) to the
// checker after Config.Trace. It relies on the simulation kernel's
// one-process-at-a-time execution: an audit sees a globally consistent
// snapshot without any locking.
//
// This file holds the checker and what every configuration shares:
// invariant 5 and the page-sized buffers. Invariants 1–4 are the MRSW
// residency obligations, the default an engine gets, with 2–4 asserted
// by whichever directory scheme keeps the records (directory.go,
// dynamic.go); an engine whose pages live elsewhere declares its own
// obligations instead (engineDecl.invariants).

import (
	"fmt"

	"repro/internal/sim"
)

// Violation describes one invariant failure.
type Violation struct {
	// Point is the protocol transition that triggered the check.
	Point string
	// Page is the page whose invariant failed.
	Page PageNo
	// Msg explains the failure.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("dsm: invariant violated at %s, page %d: %s", v.Point, v.Page, v.Msg)
}

// InvariantChecker validates Li's global protocol invariants across all
// modules of a cluster after every protocol transition.
type InvariantChecker struct {
	mods []*Module
	// fail handles a violation; the default panics (so tests trip hard).
	fail func(Violation)
	// checks counts audits executed (tests assert coverage).
	checks int
	// violations counts invariant failures delivered to fail.
	violations int
}

// AttachChecker creates an InvariantChecker over the given modules
// (normally every module of one cluster) and hooks it into each of
// them. Call it once, after all modules are created.
func AttachChecker(mods ...*Module) *InvariantChecker {
	c := &InvariantChecker{mods: mods}
	c.fail = func(v Violation) { panic(v.String()) }
	for _, m := range mods {
		m.check = c
	}
	return c
}

// SetFailHandler replaces the default panic with fn — used by tests
// that deliberately break the protocol and expect the checker to trip.
func (c *InvariantChecker) SetFailHandler(fn func(Violation)) { c.fail = fn }

// Checks returns the number of audits executed so far: one per traced
// event, plus one per page of each CheckAll sweep.
func (c *InvariantChecker) Checks() int { return c.checks }

// Violations returns the number of invariant failures observed.
func (c *InvariantChecker) Violations() int { return c.violations }

// byID returns the module for a host, or nil if it is not observed.
func (c *InvariantChecker) byID(h HostID) *Module {
	for _, m := range c.mods {
		if m.id == h {
			return m
		}
	}
	return nil
}

// report delivers one violation.
func (c *InvariantChecker) report(point string, page PageNo, format string, args ...any) {
	c.violations++
	c.fail(Violation{Point: point, Page: page, Msg: fmt.Sprintf(format, args...)})
}

// at is the audit entry, called from Module.trace after each protocol
// transition concerning page.
func (c *InvariantChecker) at(point string, page PageNo) {
	c.checks++
	c.checkPage(point, page)
}

// CheckAll sweeps every page any module holds, manages or has metadata
// for, plus whatever pages its directory scheme and engine declared
// they track — a final whole-space audit for test teardown.
func (c *InvariantChecker) CheckAll(point string) {
	set := map[PageNo]struct{}{}
	add := func(pages []PageNo) {
		for _, pg := range pages {
			set[pg] = struct{}{}
		}
	}
	for _, m := range c.mods {
		add(sim.SortedKeys(m.local))
		add(sim.SortedKeys(m.mgr))
		add(sim.SortedKeys(m.meta))
		add(m.dir.pages())
		if m.decl.pages != nil {
			add(m.decl.pages())
		}
	}
	for _, pg := range sim.SortedKeys(set) {
		c.checks++
		c.checkPage(point, pg)
	}
}

// checkPage asserts the global invariants for one page: the structural
// ones every engine shares, then the ones the running engine declared
// (engineDecl.invariants; the MRSW residency invariants by default).
func (c *InvariantChecker) checkPage(point string, page PageNo) {
	if len(c.mods) == 0 {
		return
	}
	cfg := c.mods[0].cfg

	// Structural invariants hold in every state, even mid-transaction.
	var writers []HostID
	var holders []HostID
	for _, m := range c.mods {
		if m.ep.Crashed() {
			continue // a corpse's copies died with it
		}
		lp := m.local[page]
		if lp == nil {
			continue
		}
		if len(lp.data) != cfg.PageSize {
			c.report(point, page, "host %d holds a %d-byte buffer for a %d-byte page",
				m.id, len(lp.data), cfg.PageSize)
		}
		if lp.access == WriteAccess {
			writers = append(writers, m.id)
		}
		if lp.access != NoAccess {
			holders = append(holders, m.id)
		}
		c.checkMeta(point, page, m)
	}
	if inv := c.mods[0].decl.invariants; inv != nil {
		inv(c, point, page, writers, holders)
		return
	}
	c.uniqueWriter(point, page, writers)
	c.mods[0].dir.checkPage(c, point, page, writers, holders)
}

// checkMeta asserts invariant 5 on one host's replicated allocation
// record for the page, if it has one.
func (c *InvariantChecker) checkMeta(point string, page PageNo, m *Module) {
	mt, ok := m.meta[page]
	if !ok {
		return
	}
	if mt.used < 0 || mt.used > m.cfg.PageSize {
		c.report(point, page, "host %d records %d allocated bytes in a %d-byte page",
			m.id, mt.used, m.cfg.PageSize)
	}
	if t, ok := m.cfg.Registry.Get(mt.typeID); ok && t.Size > 0 && mt.used%t.Size != 0 {
		c.report(point, page, "host %d: allocated prefix %d is not whole %s elements (size %d)",
			m.id, mt.used, t.Name, t.Size)
	}
}

// uniqueWriter asserts invariant 1. Engines whose design admits several
// writable copies (lazy release) simply do not call it.
func (c *InvariantChecker) uniqueWriter(point string, page PageNo, writers []HostID) {
	if len(writers) > 1 {
		c.report(point, page, "multiple writable copies on hosts %v", writers)
	}
}
