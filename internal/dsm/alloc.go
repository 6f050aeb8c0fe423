package dsm

import (
	"fmt"

	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The typed allocator (§2.3): a malloc-like subroutine with an extra
// type argument that lays allocations out so a page contains data of
// only one type. Allocation is centralized at host 0; the resulting page
// metadata (type, bytes in use) is replicated to every host, mirroring
// the paper's global static table, so any receiver can convert any page.

// allocator is the host-0 allocation manager state.
type allocator struct {
	cfg *Config
	// nextPage is the first never-touched page.
	nextPage PageNo
	// partial tracks, per type, a partially filled page to continue
	// filling (the "one type per page" packing rule).
	partial map[conv.TypeID]partialPage
}

type partialPage struct {
	page PageNo
	off  int
}

func newAllocator(cfg *Config) *allocator {
	return &allocator{cfg: cfg, partial: make(map[conv.TypeID]partialPage)}
}

// metaRun is the metadata one allocation sets: n consecutive pages
// from first, all of one type, every page but the last using used bytes
// and the last lastUsed. Continuing a partially filled page is a run of
// one.
type metaRun struct {
	first          PageNo
	n              int
	typeID         conv.TypeID
	used, lastUsed int
}

// at returns the metadata of the run's i-th page.
func (r metaRun) at(i int) pageMeta {
	if i == r.n-1 {
		return pageMeta{typeID: r.typeID, used: r.lastUsed}
	}
	return pageMeta{typeID: r.typeID, used: r.used}
}

// assign reserves space for count elements of the given type and
// returns the starting address plus the run of page metadata it sets.
func (a *allocator) assign(t *conv.Type, count int) (Addr, metaRun, error) {
	if count <= 0 {
		return 0, metaRun{}, fmt.Errorf("dsm: allocation of %d elements", count)
	}
	pageSize := a.cfg.PageSize
	total := t.Size * count

	// Continue filling a partially used page of the same type when the
	// request fits in it entirely (keeps allocations contiguous).
	if pp, ok := a.partial[t.ID]; ok && pp.off+total <= pageSize {
		addr := Addr(int(pp.page)*pageSize + pp.off)
		newOff := pp.off + total
		if newOff == pageSize {
			delete(a.partial, t.ID)
		} else {
			a.partial[t.ID] = partialPage{page: pp.page, off: newOff}
		}
		return addr, metaRun{first: pp.page, n: 1, typeID: t.ID, used: newOff, lastUsed: newOff}, nil
	}

	if pageSize%t.Size != 0 && total > pageSize {
		return 0, metaRun{}, fmt.Errorf("dsm: %s elements (%d bytes) do not divide the page size %d; multi-page arrays of this type would straddle pages",
			t.Name, t.Size, pageSize)
	}
	pages := (total + pageSize - 1) / pageSize
	if int(a.nextPage)+pages > a.cfg.SpaceSize/pageSize {
		return 0, metaRun{}, fmt.Errorf("dsm: out of shared memory (%d bytes requested)", total)
	}
	run := metaRun{first: a.nextPage, n: pages, typeID: t.ID, used: pageSize, lastUsed: total - (pages-1)*pageSize}
	a.nextPage += PageNo(pages)
	if run.lastUsed < pageSize {
		a.partial[t.ID] = partialPage{page: run.first + PageNo(pages-1), off: run.lastUsed}
	}
	return Addr(int(run.first) * pageSize), run, nil
}

// Alloc reserves count elements of the registered type and returns the
// DSM address of the first. It may be called from any host; the request
// is served by the allocation manager (host 0) and the page metadata is
// distributed to every host before the address is returned.
func (m *Module) Alloc(p *sim.Proc, typeID conv.TypeID, count int) (Addr, error) {
	if m.alloc != nil {
		return m.allocLocal(p, typeID, count)
	}
	resp, err := m.ep.Call(p, 0, &proto.Message{
		Kind: proto.KindAlloc,
		Args: []uint32{uint32(typeID), uint32(count)},
	})
	if err != nil {
		return 0, err
	}
	if resp.Arg(1) == 0 {
		return 0, fmt.Errorf("dsm: allocation refused by manager (type %d × %d)", typeID, count)
	}
	return Addr(resp.Arg(0)), nil
}

// allocLocal performs the allocation on the manager host itself.
func (m *Module) allocLocal(p *sim.Proc, typeID conv.TypeID, count int) (Addr, error) {
	t, ok := m.cfg.Registry.Get(typeID)
	if !ok {
		return 0, fmt.Errorf("dsm: type %d not registered", typeID)
	}
	addr, run, err := m.alloc.assign(t, count)
	if err != nil {
		return 0, err
	}
	if m.cfg.Mutation == MutAllocOverrun {
		// Injected bug: record one byte too many as allocated on every
		// page — the prefix is no longer a whole number of elements and
		// can reach past the page end.
		run.used++
		run.lastUsed++
	}
	for i := range run.n {
		page := run.first + PageNo(i)
		_, existed := m.meta[page]
		m.meta[page] = run.at(i)
		// First-touch ownership (page policies): the allocation manager
		// holds every fresh page as a zero-filled writable copy until
		// someone faults it away. Under the central policy pages live
		// at their servers instead. Strictly the FIRST touch: a later
		// allocation packing more objects onto a partially-used page must
		// leave the page's coherence state alone — by then the page may
		// have been faulted away, and re-granting the manager access here
		// would resurrect its stale frame outside the copyset, which a
		// subsequent local fault would happily read instead of fetching
		// the owner's current data.
		if m.decl.firstTouch && !existed {
			lp := m.localPageFor(page)
			if lp.access == NoAccess {
				lp.access = WriteAccess
			}
			m.dir.allocOwned(page)
		}
	}
	if err := m.distributeMeta(p, run); err != nil {
		return 0, err
	}
	for i := range run.n {
		m.trace("allocated", run.first+PageNo(i))
	}
	return addr, nil
}

// distributeMeta replicates an allocation's page metadata to every
// other host and waits for acknowledgements.
//
// Up to 16 hosts, host 0 calls every other host once per page, in
// increasing page order. A larger cluster announces the whole run in one
// physical broadcast — on a switched topology one frame per segment
// along the multicast tree instead of a per-host unicast storm — which
// every host acknowledges once, however many pages the run spans. Its
// arguments are the type, the bytes used on every page but the last,
// the page count and the bytes used on the last page.
func (m *Module) distributeMeta(p *sim.Proc, run metaRun) error {
	var others []HostID
	for h := range m.hosts {
		if HostID(h) != m.id {
			others = append(others, HostID(h))
		}
	}
	if len(others) == 0 {
		return nil
	}
	if len(others) > proto.MaxArgs {
		err := m.ep.CallMulticast(p, others, &proto.Message{
			Kind: proto.KindPageMeta,
			Page: uint32(run.first),
			Args: []uint32{uint32(run.typeID), uint32(run.used), uint32(run.n), uint32(run.lastUsed)},
		})
		if err != nil {
			return fmt.Errorf("dsm: distributing metadata for %d pages from page %d: %w", run.n, run.first, err)
		}
		return nil
	}
	for i := range run.n {
		page, mt := run.first+PageNo(i), run.at(i)
		_, err := m.ep.CallAll(p, others, func(HostID) *proto.Message {
			return &proto.Message{
				Kind: proto.KindPageMeta,
				Page: uint32(page),
				Args: []uint32{uint32(mt.typeID), uint32(mt.used)},
			}
		})
		if err != nil {
			return fmt.Errorf("dsm: distributing metadata for page %d: %w", page, err)
		}
	}
	return nil
}

// handleAlloc serves an allocation request at the allocation manager.
func (m *Module) handleAlloc(p *sim.Proc, req *proto.Message) {
	if m.alloc == nil {
		return // misdirected; requester will time out
	}
	m.protoCPU.Use(p, m.cfg.Params.ManagerProcess.Of(m.arch.Kind))
	addr, err := m.allocLocal(p, conv.TypeID(req.Arg(0)), int(req.Arg(1)))
	okFlag := uint32(1)
	if err != nil {
		okFlag = 0
	}
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindAllocReply,
		Args: []uint32{uint32(addr), okFlag},
	})
}

// handlePageMeta installs replicated allocation metadata: one page's
// type and bytes used, or, with two more arguments, a whole run.
func (m *Module) handlePageMeta(req *proto.Message) *proto.Message {
	used := int(req.Arg(1))
	run := metaRun{first: PageNo(req.Page), n: 1, typeID: conv.TypeID(req.Arg(0)), used: used, lastUsed: used}
	if len(req.Args) == 4 {
		run.n, run.lastUsed = int(req.Arg(2)), int(req.Arg(3))
	}
	for i := range run.n {
		m.meta[run.first+PageNo(i)] = run.at(i)
	}
	return &proto.Message{Kind: proto.KindPageMetaAck}
}
