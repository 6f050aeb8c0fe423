package dsm

// The steps of a page transfer, each said once. Whatever an engine's
// protocol decides — who serves, who is invalidated, when a handoff
// commits — the bytes then take the same few steps: the sender
// snapshots the page's allocated prefix (servedPrefix), and the
// receiver takes one receive step per shape of what arrived, each of
// which converts it into this host's representation when the sender is
// an incompatible machine (the paper's one conversion hook, §2.3):
//
//   - installImage: a whole page image, copied into the resident page;
//   - receiveDiff: a typed diff, then folded in by applyDiff;
//   - storeRun: a run of elements, stored into a span of the page.
//
// The caller then closes the install (installed). The steps yield for
// the conversion cost, so each caller re-checks whatever a concurrent
// install may have moved before it applies what it received. The
// region walks that turn a typed access into per-group or per-page
// steps live here too, as does the backoff every retrying round shares.

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// mustArch resolves the machine kind a message or diff arrived from. An
// unknown code is a corrupted or mis-built message — a bug, on every
// path.
func mustArch(k arch.Kind) arch.Arch {
	a, err := arch.ByKind(k)
	if err != nil {
		panic(fmt.Sprintf("dsm: data from unknown architecture %d", k))
	}
	return a
}

// foreign reports whether bytes in from's representation must be
// converted before a host of architecture to may use them. The one
// guard of the conversion hook: MutSkipConversion (foreign bytes kept
// verbatim, the corruption the conversion ablation demonstrates) is
// honoured by every engine through it.
func (m *Module) foreign(from, to arch.Arch) bool {
	return !from.Compatible(to) && m.cfg.Mutation != MutSkipConversion
}

// converted books one performed conversion; a routine that fails on
// registered, element-aligned data is a bug.
func (m *Module) converted(page PageNo, rep conv.Report, err error) {
	if err != nil {
		panic(fmt.Sprintf("dsm: converting page %d: %v", page, err))
	}
	m.stats.Conversions++
	m.stats.ConvReport.Add(rep)
}

// allocMeta returns the allocation metadata of a page whose typed data
// is converted, decoded or diffed here. Typed data for a page with no
// allocation metadata cannot be produced by the typed accessors or the
// prefix snapshots, so it panics rather than pass foreign bytes on
// silently.
func (m *Module) allocMeta(page PageNo) pageMeta {
	mt, ok := m.meta[page]
	if !ok {
		panic(fmt.Sprintf("dsm: host %d handling typed data for page %d with no allocation metadata", m.id, page))
	}
	return mt
}

// convertRegion converts data — whole elements of page's one type — in
// place between two representations, charging this host the
// per-element cost (Table 3) and rebasing pointers by the difference of
// the two kinds' DSM bases. An empty body (a never-allocated page) and
// a compatible pair cost nothing.
func (m *Module) convertRegion(p *sim.Proc, page PageNo, data []byte, from, to arch.Arch) {
	if len(data) == 0 || !m.foreign(from, to) {
		return
	}
	mt := m.allocMeta(page)
	typ := m.cfg.Registry.MustGet(mt.typeID)
	n := len(data) / typ.Size
	p.Sleep(m.cfg.Params.RegionConvertCost(m.arch.Kind, typ.Cost, n))
	rep, err := m.cfg.Registry.ConvertRegion(mt.typeID, data[:n*typ.Size], from, to, int32(m.base(to.Kind))-int32(m.base(from.Kind)))
	m.converted(page, rep, err)
}

// convertIn converts a body received from a host of kind srcKind into
// this host's representation, in place (§2.3: conversion happens on
// arrival at an incompatible host).
func (m *Module) convertIn(p *sim.Proc, page PageNo, data []byte, srcKind arch.Kind) {
	m.convertRegion(p, page, data, mustArch(srcKind), m.arch)
}

// convertDiff is convertIn for a typed diff: its payload is packed
// whole elements of the page's one type, so it converts — and is
// charged — exactly like that many elements of a page body.
func (m *Module) convertDiff(p *sim.Proc, page PageNo, d *conv.Diff, srcKind arch.Kind) {
	src := mustArch(srcKind)
	if d.Empty() || !m.foreign(src, m.arch) {
		return
	}
	typ := m.cfg.Registry.MustGet(d.Type)
	p.Sleep(m.cfg.Params.RegionConvertCost(m.arch.Kind, typ.Cost, d.Elements()))
	rep, err := m.cfg.Registry.ConvertDiff(d, src, m.arch, int32(m.base(m.arch.Kind))-int32(m.base(srcKind)))
	m.converted(page, rep, err)
}

// installImage is the receive step of a whole page image: it converts
// resp's body, copies it into the resident page, grants access and
// books the fetch as event. The page frame is looked up after the
// conversion yields; a caller that needs it earlier looks it up itself.
// The caller keeps its own bookkeeping and closes the install
// (installed).
func (m *Module) installImage(p *sim.Proc, page PageNo, resp *proto.Message, access Access, event string) {
	m.convertIn(p, page, resp.Data, arch.Kind(resp.SrcArch))
	lp := m.localPageFor(page)
	copy(lp.data, resp.Data)
	lp.access = access
	m.countFetch(page, len(resp.Data), event)
}

// receiveDiff is the receive step of a typed diff of page from a host
// of kind src: it decodes body against the page's element type and
// converts the payload into this host's representation. With view the
// payload aliases body and converts in place, so body must be this
// host's and must outlive the diff; otherwise the payload is a fresh
// copy. The conversion yields: the caller re-checks whatever a
// concurrent install may have moved before it applies the diff.
func (m *Module) receiveDiff(p *sim.Proc, page PageNo, body []byte, src arch.Kind, view bool) conv.Diff {
	mt := m.allocMeta(page)
	size := m.cfg.Registry.MustGet(mt.typeID).Size
	var d conv.Diff
	var err error
	if view {
		d, err = conv.ViewDiff(mt.typeID, size, body)
	} else {
		d, err = conv.DecodeDiff(mt.typeID, size, body)
	}
	if err != nil {
		panic(fmt.Sprintf("dsm: host %d decoding a diff for page %d: %v", m.id, page, err))
	}
	m.convertDiff(p, page, &d, src)
	return d
}

// applyDiff folds a diff in this host's representation into dst, a
// buffer holding page's allocated region; a failure is a protocol bug.
func (m *Module) applyDiff(page PageNo, d *conv.Diff, dst []byte) {
	if err := m.cfg.Registry.Apply(d, dst); err != nil {
		panic(fmt.Sprintf("dsm: host %d applying a diff to page %d: %v", m.id, page, err))
	}
}

// twinDiff diffs page's allocated prefix in cur against twin, the copy
// taken before this interval's first write: the elements written since.
func (m *Module) twinDiff(page PageNo, twin, cur []byte) conv.Diff {
	mt := m.allocMeta(page)
	d, err := m.cfg.Registry.BuildDiff(mt.typeID, twin[:mt.used], cur[:mt.used])
	if err != nil {
		panic(fmt.Sprintf("dsm: host %d diffing page %d against its twin: %v", m.id, page, err))
	}
	return d
}

// storeRun is the receive step of a run of elements of page: data, in
// src's representation, is converted in a pooled copy (data itself may
// be sent on to other hosts) and stored into dst, the span of the
// resident page it overwrites.
func (m *Module) storeRun(p *sim.Proc, page PageNo, dst, data []byte, src arch.Kind) {
	buf := bufpool.Get(len(data))
	copy(buf, data)
	m.convertIn(p, page, buf, src)
	copy(dst, buf)
	bufpool.Put(buf)
}

// freshBuf allocates a buffer that outlives its sender: a reply body is
// retained by the remote-operation layer's dedup cache to answer
// retransmissions, so it cannot come from the pool. It serves the RC
// fetch and pull replies, sync payloads (which ride releases and
// grants) and the carried diffs an RC accumulation keeps, central-server
// reads and recovery replies; a quorum read reply carries its replica
// instead (see quorumPage).
func freshBuf(n int) []byte {
	return make([]byte, n) // vet:ignore hot-alloc — retained by the dedup reply cache
}

// servedPrefix snapshots what a transfer of page carries: the allocated
// prefix of image (nothing for a never-allocated page), in this host's
// representation. alloc is bufpool.Get where the sender blocks until
// the receiver has acknowledged and then recycles the buffer, freshBuf
// where the bytes ride a reply.
func (m *Module) servedPrefix(page PageNo, image []byte, alloc func(int) []byte) []byte {
	data := alloc(m.meta[page].used)
	copy(data, image[:len(data)])
	return data
}

// countFetch books one received page body and emits its trace event.
func (m *Module) countFetch(page PageNo, n int, event string) {
	m.stats.PagesFetched++
	m.stats.BytesFetched += n
	m.pageFetches[page]++
	m.trace(event, page)
}

// installed closes an install: the reply's body has been converted and
// copied into the local page, so its wire buffer (which Data aliased)
// is recycled, the installation cost is charged, and the checker audits
// the state the install left — on the recovery path too, where the
// transaction lock the recovering host still holds keeps the audit to
// the structural invariants.
func (m *Module) installed(p *sim.Proc, page PageNo, resp *proto.Message) {
	bufpool.Put(resp.TakeWire())
	p.Sleep(m.jittered(m.cfg.Params.InstallCost.Of(m.arch.Kind)))
	m.checkpoint("page-installed", page)
}

// walkGroups runs a typed region access one native-VM-page group at a
// time (the host's fault granularity): ensure makes the group resident
// with the right the access needs, prepare (optional) runs before the
// bytes are touched, and each page span of the group is handed to fn
// and recorded — the consistency a sequence of hardware accesses would
// see. A large region is NOT accessed atomically; it stops at the first
// group that cannot be made resident, and groups already consumed stay
// consumed.
func (m *Module) walkGroups(p *sim.Proc, addr Addr, n int, kind sctrace.OpKind,
	ensure func(addr Addr, n int) error, prepare func(addr Addr, n int), fn func(seg []byte, off int)) error {
	groupBytes := m.groupSize() * m.cfg.PageSize
	end := int(addr) + n
	for pos, off := int(addr), 0; pos < end; {
		hi := min(end, (pos/groupBytes+1)*groupBytes)
		chunk, base, t0 := Addr(pos), off, m.traceClock()
		if err := ensure(chunk, hi-pos); err != nil {
			return err
		}
		if prepare != nil {
			prepare(chunk, hi-pos)
		}
		m.forEachSpan(chunk, hi-pos, func(seg []byte, o int) {
			fn(seg, base+o)
			m.recordSC(p, kind, t0, chunk+Addr(o), seg)
		})
		off += hi - pos
		pos = hi
	}
	return nil
}

// span is one page's share of a region access.
type span struct {
	page PageNo
	// addr is the DSM address of the span's first byte; lo and n locate
	// it within the page; off is its offset within the region.
	addr       Addr
	lo, n, off int
}

// walkPages runs a region access one DSM page at a time, for the
// engines whose unit of work is a per-page remote operation rather than
// a resident group. It stops at the first span that fails.
func (m *Module) walkPages(addr Addr, n int, fn func(s span) error) error {
	end := int(addr) + n
	for pos, off := int(addr), 0; pos < end; {
		pg := m.PageOf(Addr(pos))
		pageStart := int(pg) * m.cfg.PageSize
		hi := min(end, pageStart+m.cfg.PageSize)
		if err := fn(span{page: pg, addr: Addr(pos), lo: pos - pageStart, n: hi - pos, off: off}); err != nil {
			return err
		}
		off += hi - pos
		pos = hi
	}
	return nil
}

// retryPause sleeps one step of the capped exponential backoff every
// retrying round uses and returns the next step: doubled, up to the
// blocking retry interval. The jitter desynchronizes hosts that failed
// in the same instant; it comes from the seeded RNG and is drawn only
// here, so runs that never retry stay bit-identical.
func (m *Module) retryPause(p *sim.Proc, backoff sim.Duration) sim.Duration {
	p.Sleep(backoff + sim.Duration(m.k.Rand().Int63n(int64(backoff/4)+1)))
	m.exitIfCrashed(p)
	if limit := sim.Duration(m.cfg.Params.BlockingRetryInterval); backoff < limit {
		backoff = min(2*backoff, limit)
	}
	return backoff
}
