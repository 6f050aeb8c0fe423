package dsm

// The lazy-release-consistency engine (PolicyRC). Where the
// write-invalidate family propagates writes eagerly — at access time,
// by revoking every other copy — this engine propagates them lazily, at
// synchronization boundaries, TreadMarks-style on top of per-page
// homes:
//
//   - The first write of an interval copies the page into a twin.
//     Every resident copy is writable; multiple concurrent writers of
//     one page are legal.
//   - A release (dsync V, event set, barrier arrival) diffs each
//     twinned page against its twin — whole elements of the page's one
//     registered type, so the diff converts between architectures
//     exactly like a page — and pushes the diffs to the pages' homes,
//     then advances this host's vector timestamp and stamps the
//     releasing primitive with (timestamp, write notices).
//   - An acquire merges the grant's stamp and pulls, for each resident
//     page with an outstanding notice, the home's diff-log suffix this
//     host has not applied. The home retires log entries past a cap;
//     a pull reaching behind the log falls back to the whole page.
//   - A fault fetches the home's current image, which already reflects
//     every pushed interval, so non-resident pages need no pulling.
//
// The engine's declaration binds this machinery to dsync via RCSync and
// names sctrace.CheckRC, the happens-before checker, as its trace
// oracle.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// rcLogCap bounds each home's per-page diff log. Entries past the cap
// retire oldest-first; an acquirer whose pull reaches behind the log
// receives the whole page instead (rcPullWhole).
const rcLogCap = 16

// rcPullWhole flags a pull reply carrying the home's whole page image
// instead of a log suffix (Args[2]).
const rcPullWhole = 1

// rcState is one host's release-consistency state.
type rcState struct {
	// vt is this host's vector timestamp: vt[h] counts the intervals of
	// host h this host has synchronized with (its own entry counts its
	// own completed intervals). It only grows.
	vt []uint32
	// twins maps each page written in the current interval to a copy of
	// its contents at the interval's first write.
	twins map[PageNo][]byte
	// notices maps pages to the highest home version some synchronized
	// release has announced. Monotone; carried in every payload.
	notices map[PageNo]uint32
	// applied maps resident pages to the highest home version this
	// host's copy reflects.
	applied map[PageNo]uint32
	// home holds the per-page version counter and diff log on the
	// page's home host; nil entries elsewhere.
	home map[PageNo]*rcHome
}

// rcHome is a home's authoritative ordering state for one page.
type rcHome struct {
	// version counts the intervals folded into the home's copy.
	version uint32
	// log holds the most recent intervals' diffs, in version order,
	// already in the home's representation.
	log []rcLogEntry
}

// rcLogEntry is one pushed interval in a home's diff log.
type rcLogEntry struct {
	version uint32
	writer  HostID
	diff    conv.Diff
}

// newRCState builds the empty RC state for a cluster of nhosts.
func newRCState(nhosts int) *rcState {
	return &rcState{
		vt:      make([]uint32, nhosts),
		twins:   make(map[PageNo][]byte),
		notices: make(map[PageNo]uint32),
		applied: make(map[PageNo]uint32),
		home:    make(map[PageNo]*rcHome),
	}
}

// rcEngine is the lazy-release replication strategy. Reads and writes
// only ensure residency (one whole-page fetch from the home on first
// touch); coherence runs entirely through the sync hooks. Multiple
// writable copies are the design, so the engine declares no residency
// invariant: coherence is checked offline by the happens-before oracle.
type rcEngine struct {
	*Module
	rc *rcState
}

func newRCEngine(mod *Module) (engine, engineDecl) {
	m := &rcEngine{Module: mod, rc: newRCState(len(mod.hosts))}
	m.ep.Handle(proto.KindRCFetch, m.handleRCFetch)
	m.ep.Handle(proto.KindRCDiff, m.handleRCDiff)
	m.ep.Handle(proto.KindRCPull, m.handleRCPull)
	return m, engineDecl{
		firstTouch: true,
		invariants: func(*InvariantChecker, string, PageNo, []HostID, []HostID) {},
		hashState:  m.hashState,
		traceCheck: sctrace.CheckRC,
		sync:       &RCSync{e: m},
	}
}

// RCSync is the RC engine's dsync payload implementation (it satisfies
// dsync.SyncModel structurally; dsm does not import dsync).
type RCSync struct {
	e *rcEngine
}

// ReleasePayload closes the current interval: push every twinned page's
// diff to its home, advance this host's vector timestamp, and return
// the encoded (timestamp, write-notice) payload to ride the releasing
// primitive.
func (s *RCSync) ReleasePayload(p *sim.Proc) ([]byte, error) {
	return s.e.rcRelease(p)
}

// AcquirePayload merges a grant's payload into this host's timestamp
// and notices, then pulls the diffs the notices imply for resident
// pages.
func (s *RCSync) AcquirePayload(p *sim.Proc, data []byte) error {
	return s.e.rcAcquire(p, data)
}

// MergePayload folds two payloads component-wise (max of vector
// timestamps, max of per-page notices). Pure; always returns a fresh
// slice.
func (s *RCSync) MergePayload(a, b []byte) []byte {
	return rcMergePayload(a, b)
}

// Residency is EnsureAccess's fault accounting with the home fetch as
// the per-page fault. A copy once resident is never invalidated or
// stolen under RC, so the re-check after the faults finds nothing
// missing.
func (m *rcEngine) readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error {
	ensure := func(addr Addr, n int) error { return m.ensureAccess(p, addr, n, false, m.rcFaultPage) }
	return m.walkGroups(p, addr, n, sctrace.Read, ensure, nil, fn)
}

func (m *rcEngine) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	ensure := func(addr Addr, n int) error { return m.ensureAccess(p, addr, n, true, m.rcFaultPage) }
	return m.walkGroups(p, addr, n, sctrace.Write, ensure, m.rcTwinSpan, fill)
}

func (m *rcEngine) atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	panic("dsm: atomic operations are not defined under the release-consistency policy; use the distributed synchronization facility")
}

// rcFaultPage obtains one page's current image from its home. The fresh
// image reflects every interval pushed so far, so it satisfies every
// write notice this host could hold for the page.
func (m *rcEngine) rcFaultPage(p *sim.Proc, pg PageNo, _ bool) error {
	l := m.faultLockFor(pg)
	l.P(p)
	defer m.checkpoint("fault-serviced", pg)
	defer l.V()
	if m.hasAccess(pg, true) {
		return nil // another thread faulted it in while we queued
	}
	home := m.dir.home(pg)
	if home == m.id {
		hm := m.rcHomeFor(pg)
		m.rc.applied[pg] = hm.version
		m.trace("rc-home-touch", pg)
		return nil
	}
	resp, err := m.ep.Call(p, home, &proto.Message{Kind: proto.KindRCFetch, Page: uint32(pg)})
	if err != nil {
		return m.callFailed(err, "host %d fetching page %d from home %d", m.id, pg, home)
	}
	m.rcInstallPage(p, pg, resp)
	return nil
}

// rcInstallPage installs a fetch reply. The page was not resident, so
// no twin can exist (a twin implies a prior write, which implies
// residency) and the image lands verbatim.
func (m *rcEngine) rcInstallPage(p *sim.Proc, pg PageNo, resp *proto.Message) {
	m.convertIn(p, pg, resp.Data, arch.Kind(resp.SrcArch))
	lp := m.localPageFor(pg)
	copy(lp.data, resp.Data)
	lp.access = WriteAccess
	m.rc.applied[pg] = resp.Arg(0)
	m.countFetch(pg, len(resp.Data), "fetch")
	m.installed(p, pg, resp)
}

// rcTwinSpan copies each page the write span touches into a twin if the
// current interval has not written it yet — the access right is
// irrelevant: a first-touch owner holds WriteAccess without ever
// faulting, and its interval still needs a twin to diff against.
func (m *rcEngine) rcTwinSpan(addr Addr, n int) {
	if n <= 0 {
		return
	}
	first := m.PageOf(addr)
	last := m.PageOf(addr + Addr(n-1))
	for pg := first; pg <= last; pg++ {
		if m.rc.twins[pg] != nil {
			continue
		}
		tw := make([]byte, m.cfg.PageSize) // vet:ignore hot-alloc — a twin lives until its interval's release
		copy(tw, m.local[pg].data)
		m.rc.twins[pg] = tw
		m.stats.RCTwins++
		m.trace("rc-twin", pg)
	}
}

// rcHomeFor returns (materializing if needed) this home's ordering
// state for a page. Materialization also creates the authoritative
// local copy: pages start zero-filled everywhere, so a zero frame at
// version 0 is exact.
func (m *rcEngine) rcHomeFor(pg PageNo) *rcHome {
	if m.dir.home(pg) != m.id {
		panic(fmt.Sprintf("dsm: host %d is not the home of page %d", m.id, pg))
	}
	hm := m.rc.home[pg]
	if hm == nil {
		hm = &rcHome{}
		m.rc.home[pg] = hm
		if lp := m.localPageFor(pg); lp.access == NoAccess {
			lp.access = WriteAccess
		}
	}
	return hm
}

// rcRelease closes the current interval: push every twinned page's diff
// to its home (in page order, for determinism), advance this host's
// vector timestamp, record the Release, and return the encoded
// (timestamp, notices) payload for the releasing primitive.
func (m *rcEngine) rcRelease(p *sim.Proc) ([]byte, error) {
	m.exitIfCrashed(p)
	rc := m.rc
	lost := false
	for _, pg := range sim.SortedKeys(rc.twins) {
		tw := rc.twins[pg]
		if tw == nil {
			continue // a concurrent release on this host got here first
		}
		mt, ok := m.meta[pg]
		if !ok {
			panic(fmt.Sprintf("dsm: host %d releasing page %d with no allocation metadata", m.id, pg))
		}
		lp := m.local[pg]
		d, err := m.cfg.Registry.BuildDiff(mt.typeID, tw[:mt.used], lp.data[:mt.used])
		if err != nil {
			panic(fmt.Sprintf("dsm: diffing page %d: %v", pg, err))
		}
		delete(rc.twins, pg) // the interval is closed for this page either way
		if d.Empty() {
			continue
		}
		if m.cfg.Mutation == MutLostDiff && !lost {
			// Injected bug: the interval's first diff (and its notice)
			// silently vanishes — the timestamp still advances, so
			// synchronized readers expect the lost writes.
			lost = true
			continue
		}
		ver, err := m.rcPushDiff(p, pg, &d)
		if err != nil {
			return nil, err
		}
		if ver > rc.notices[pg] {
			rc.notices[pg] = ver
		}
		if rc.applied[pg] == ver-1 {
			rc.applied[pg] = ver // our copy already holds this interval
		}
		m.stats.RCDiffsSent++
		m.stats.RCDiffBytes += d.EncodedSize()
	}
	rc.vt[m.id]++
	m.recordSyncOp(p, sctrace.Release)
	return rcEncodePayload(rc.vt, rc.notices), nil
}

// rcPushDiff delivers one interval diff to the page's home and returns
// the home version it was logged as.
func (m *rcEngine) rcPushDiff(p *sim.Proc, pg PageNo, d *conv.Diff) (uint32, error) {
	home := m.dir.home(pg)
	if home == m.id {
		// Local push: the home's copy (ours) already holds the writes;
		// only the ordering state advances. The log keeps the diff in
		// this host's — the home's — representation, like a remote push
		// after conversion.
		hm := m.rcHomeFor(pg)
		hm.version++
		m.rcLogAppend(hm, rcLogEntry{version: hm.version, writer: m.id, diff: *d})
		m.trace("rc-diff", pg)
		m.checkpoint("rc-diff-logged", pg)
		return hm.version, nil
	}
	// Staged in a pooled buffer; Call blocks until the home has
	// acknowledged (retransmissions re-encode from it), so it recycles
	// as soon as Call returns.
	wire := bufpool.Get(d.EncodedSize())
	d.EncodeTo(wire)
	resp, err := m.ep.Call(p, home, &proto.Message{
		Kind: proto.KindRCDiff,
		Page: uint32(pg),
		Args: []uint32{uint32(m.id), m.rc.vt[m.id] + 1},
		Data: wire,
	})
	bufpool.Put(wire)
	if err != nil {
		return 0, m.callFailed(err, "host %d pushing page %d diff to home %d", m.id, pg, home)
	}
	ver := resp.Arg(0)
	bufpool.Put(resp.TakeWire())
	return ver, nil
}

// rcLogAppend logs one interval at the home, retiring the oldest
// entries past the cap.
func (m *rcEngine) rcLogAppend(hm *rcHome, e rcLogEntry) {
	hm.log = append(hm.log, e)
	if n := len(hm.log) - rcLogCap; n > 0 {
		m.stats.RCDiffsRetired += n
		hm.log = append(hm.log[:0:0], hm.log[n:]...)
	}
}

// rcAcquire merges a grant's payload into this host's timestamp and
// notices, records the Acquire, and pulls the updates the notices imply
// for pages resident here. A non-resident page needs nothing: its next
// fault fetches the home's current image, which already contains them.
func (m *rcEngine) rcAcquire(p *sim.Proc, data []byte) error {
	m.exitIfCrashed(p)
	rc := m.rc
	vt, notices := rcDecodePayload(data)
	for i, v := range vt {
		if i < len(rc.vt) && v > rc.vt[i] {
			rc.vt[i] = v
		}
	}
	for _, nt := range notices {
		if nt.ver > rc.notices[nt.page] {
			rc.notices[nt.page] = nt.ver
		}
	}
	m.recordSyncOp(p, sctrace.Acquire)
	stale := slices.DeleteFunc(sim.SortedKeys(rc.notices), func(pg PageNo) bool {
		return rc.notices[pg] <= rc.applied[pg] || !m.hasAccess(pg, false)
	})
	for _, pg := range stale {
		if err := m.rcPull(p, pg); err != nil {
			return err
		}
	}
	return nil
}

// rcPull brings this host's copy of one resident page up to the home's
// current version: a log suffix of diffs when the home still has it, the
// whole page image when the log has been retired past our version.
func (m *rcEngine) rcPull(p *sim.Proc, pg PageNo) error {
	rc := m.rc
	home := m.dir.home(pg)
	if home == m.id {
		rc.applied[pg] = m.rcHomeFor(pg).version // the home is always current
		return nil
	}
	m.stats.RCPulls++
	resp, err := m.ep.Call(p, home, &proto.Message{
		Kind: proto.KindRCPull,
		Page: uint32(pg),
		Args: []uint32{rc.applied[pg]},
	})
	if err != nil {
		return m.callFailed(err, "host %d pulling page %d diffs from home %d", m.id, pg, home)
	}
	version, count, flags := resp.Arg(0), resp.Arg(1), resp.Arg(2)
	if flags&rcPullWhole != 0 {
		m.rcInstallWhole(p, pg, resp, version)
		return nil
	}
	mt, ok := m.meta[pg]
	if !ok {
		panic(fmt.Sprintf("dsm: host %d pulled diffs for page %d with no allocation metadata", m.id, pg))
	}
	typ := m.cfg.Registry.MustGet(mt.typeID)
	entries := make([]rcLogEntry, 0, count)
	data, src := resp.Data, arch.Kind(resp.SrcArch)
	off := 0
	for i := 0; i < int(count); i++ {
		ver := binary.BigEndian.Uint32(data[off:])
		writer := HostID(binary.BigEndian.Uint32(data[off+4:]))
		sz := int(binary.BigEndian.Uint32(data[off+8:]))
		d, err := conv.DecodeDiff(mt.typeID, typ.Size, data[off+12:off+12+sz])
		if err != nil {
			panic(fmt.Sprintf("dsm: host %d decoding pulled diff for page %d: %v", m.id, pg, err))
		}
		off += 12 + sz
		entries = append(entries, rcLogEntry{version: ver, writer: writer, diff: d})
	}
	bufpool.Put(resp.TakeWire()) // DecodeDiff copied the payloads
	for i := range entries {
		e := &entries[i]
		if e.version <= rc.applied[pg] {
			continue // a concurrent pull on this host already applied it
		}
		if e.writer != m.id {
			m.convertDiff(p, pg, &e.diff, src)
			m.rcApplyDiff(pg, &e.diff)
		}
		rc.applied[pg] = e.version
	}
	if version > rc.applied[pg] {
		rc.applied[pg] = version
	}
	m.trace("rc-pull", pg)
	return nil
}

// rcInstallWhole installs a whole-page pull reply without losing this
// interval's unreleased local writes: diff the live twin against the
// page first, install the home image into both, then re-apply the local
// diff to the page. The refreshed twin makes the next release diff
// carry only this interval's writes, not the home's.
func (m *rcEngine) rcInstallWhole(p *sim.Proc, pg PageNo, resp *proto.Message, version uint32) {
	rc := m.rc
	if version <= rc.applied[pg] {
		bufpool.Put(resp.TakeWire()) // a concurrent pull got further; stale image
		return
	}
	mt, ok := m.meta[pg]
	if !ok {
		panic(fmt.Sprintf("dsm: host %d re-fetched page %d with no allocation metadata", m.id, pg))
	}
	lp := m.localPageFor(pg)
	var local *conv.Diff
	if tw := rc.twins[pg]; tw != nil {
		d, err := m.cfg.Registry.BuildDiff(mt.typeID, tw[:mt.used], lp.data[:mt.used])
		if err != nil {
			panic(fmt.Sprintf("dsm: diffing page %d against its twin: %v", pg, err))
		}
		if !d.Empty() {
			local = &d
		}
	}
	m.convertIn(p, pg, resp.Data, arch.Kind(resp.SrcArch))
	copy(lp.data, resp.Data)
	if tw := rc.twins[pg]; tw != nil {
		copy(tw, lp.data)
		if local != nil {
			m.mustApply(pg, local, lp.data)
		}
	}
	rc.applied[pg] = version
	m.countFetch(pg, len(resp.Data), "rc-refetch")
	m.installed(p, pg, resp)
}

// rcApplyDiff folds one decoded diff (already in this host's
// representation) into the resident page — and into the live twin if
// one exists: a pulled interval the twin does not hold would otherwise
// be diffed right back out at this interval's release, reverting the
// remote writes at the home.
func (m *rcEngine) rcApplyDiff(pg PageNo, d *conv.Diff) {
	tw := m.rc.twins[pg]
	if m.cfg.Mutation == MutStaleTwinMerge && tw != nil {
		// Injected bug: with a twin live the merge lands only in the
		// twin — the page itself misses the interval, and synchronized
		// readers see pre-interval bytes.
		m.mustApply(pg, d, tw)
		return
	}
	m.mustApply(pg, d, m.localPageFor(pg).data)
	if tw != nil {
		m.mustApply(pg, d, tw)
	}
	m.stats.RCDiffsApplied++
}

// mustApply applies a diff to one buffer; a failure is a protocol bug.
func (m *rcEngine) mustApply(pg PageNo, d *conv.Diff, dst []byte) {
	if err := m.cfg.Registry.Apply(d, dst); err != nil {
		panic(fmt.Sprintf("dsm: host %d applying diff to page %d: %v", m.id, pg, err))
	}
}

// recordSyncOp appends an Acquire/Release record carrying this host's
// current vector timestamp. It bypasses recordSC deliberately: the
// canonical-bytes conversion there would reinterpret the encoded
// timestamp as page data and corrupt it.
func (m *rcEngine) recordSyncOp(p *sim.Proc, kind sctrace.OpKind) {
	rec := m.cfg.SCRecorder
	if rec == nil {
		return
	}
	now := int64(p.Now())
	rec.Record(kind, int(m.id), p.Name(), now, now, 0, sctrace.EncodeVT(m.rc.vt))
}

// handleRCFetch serves the home's current page image (fault path).
func (m *rcEngine) handleRCFetch(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	pg := PageNo(req.Page)
	bufpool.Put(req.TakeWire())
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.OwnerProcess.Of(m.arch.Kind)))
	hm := m.rcHomeFor(pg)
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindRCFetchReply,
		Page: req.Page,
		Args: []uint32{hm.version},
		Data: m.servedPrefix(pg, m.localPageFor(pg).data, freshBuf),
	})
	m.stats.PagesServed++
	m.trace("serve", pg)
}

// handleRCDiff logs one pushed interval at the home: convert the diff
// into the home's representation, fold it into the authoritative copy,
// append it to the log, and acknowledge with the version it became.
func (m *rcEngine) handleRCDiff(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	pg := PageNo(req.Page)
	writer := HostID(req.Arg(0))
	mt, ok := m.meta[pg]
	if !ok {
		panic(fmt.Sprintf("dsm: home %d received diff for page %d with no allocation metadata", m.id, pg))
	}
	typ := m.cfg.Registry.MustGet(mt.typeID)
	d, err := conv.DecodeDiff(mt.typeID, typ.Size, req.Data)
	src := arch.Kind(req.SrcArch)
	bufpool.Put(req.TakeWire()) // DecodeDiff copied the payload
	if err != nil {
		panic(fmt.Sprintf("dsm: home %d decoding diff for page %d: %v", m.id, pg, err))
	}
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.OwnerProcess.Of(m.arch.Kind)))
	m.convertDiff(p, pg, &d, src)
	hm := m.rcHomeFor(pg)
	m.rcApplyDiff(pg, &d)
	hm.version++
	m.rcLogAppend(hm, rcLogEntry{version: hm.version, writer: writer, diff: d})
	m.rc.applied[pg] = hm.version
	m.trace("rc-diff", pg)
	m.checkpoint("rc-diff-logged", pg)
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindRCDiffAck,
		Page: req.Page,
		Args: []uint32{hm.version},
	})
}

// handleRCPull serves an acquirer's catch-up request: the log suffix
// past its version when the log still reaches back that far, the whole
// page image otherwise (rcPullWhole).
func (m *rcEngine) handleRCPull(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	pg := PageNo(req.Page)
	have := req.Arg(0)
	bufpool.Put(req.TakeWire())
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.OwnerProcess.Of(m.arch.Kind)))
	hm := m.rcHomeFor(pg)
	if have >= hm.version {
		m.ep.Reply(p, req, &proto.Message{
			Kind: proto.KindRCPullReply,
			Page: req.Page,
			Args: []uint32{hm.version, 0, 0},
		})
		return
	}
	// The log holds versions (hm.version-len(log), hm.version]; the
	// suffix (have, hm.version] is intact iff have is inside or at the
	// left edge of that window.
	if have < hm.version-uint32(len(hm.log)) {
		m.ep.Reply(p, req, &proto.Message{
			Kind: proto.KindRCPullReply,
			Page: req.Page,
			Args: []uint32{hm.version, 0, rcPullWhole},
			Data: m.servedPrefix(pg, m.localPageFor(pg).data, freshBuf),
		})
		m.stats.PagesServed++
		m.trace("serve", pg)
		return
	}
	size, count := 0, uint32(0)
	for i := range hm.log {
		if hm.log[i].version > have {
			size += 12 + hm.log[i].diff.EncodedSize()
			count++
		}
	}
	data := freshBuf(size)
	off := 0
	for i := range hm.log {
		e := &hm.log[i]
		if e.version <= have {
			continue
		}
		binary.BigEndian.PutUint32(data[off:], e.version)
		binary.BigEndian.PutUint32(data[off+4:], uint32(e.writer))
		binary.BigEndian.PutUint32(data[off+8:], uint32(e.diff.EncodedSize()))
		off += 12 + e.diff.EncodeTo(data[off+12:])
	}
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindRCPullReply,
		Page: req.Page,
		Args: []uint32{hm.version, count, 0},
		Data: data,
	})
	m.trace("rc-serve-diffs", pg)
}

// rcNotice is one decoded (page, home version) write notice.
type rcNotice struct {
	page PageNo
	ver  uint32
}

// rcEncodePayload encodes a sync payload: [u32 nvt][vt…][u32 n][page,
// ver]×n, big-endian, notices in ascending page order. The layout is
// canonical, so payloads merge and compare byte-wise deterministically.
func rcEncodePayload(vt []uint32, notices map[PageNo]uint32) []byte {
	pages := sim.SortedKeys(notices)
	buf := make([]byte, 4+4*len(vt)+4+8*len(pages)) // vet:ignore hot-alloc — the payload escapes into the grant chain
	binary.BigEndian.PutUint32(buf, uint32(len(vt)))
	off := 4
	for _, v := range vt {
		binary.BigEndian.PutUint32(buf[off:], v)
		off += 4
	}
	binary.BigEndian.PutUint32(buf[off:], uint32(len(pages)))
	off += 4
	for _, pg := range pages {
		binary.BigEndian.PutUint32(buf[off:], uint32(pg))
		binary.BigEndian.PutUint32(buf[off+4:], notices[pg])
		off += 8
	}
	return buf
}

// rcDecodePayload parses a sync payload; nil or empty means "nothing
// released yet" and decodes to nothing.
func rcDecodePayload(data []byte) ([]uint32, []rcNotice) {
	if len(data) < 4 {
		return nil, nil
	}
	nvt := int(binary.BigEndian.Uint32(data))
	off := 4
	vt := make([]uint32, nvt)
	for i := range vt {
		vt[i] = binary.BigEndian.Uint32(data[off:])
		off += 4
	}
	n := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	notices := make([]rcNotice, n)
	for i := range notices {
		notices[i].page = PageNo(binary.BigEndian.Uint32(data[off:]))
		notices[i].ver = binary.BigEndian.Uint32(data[off+4:])
		off += 8
	}
	return vt, notices
}

// rcMergePayload folds two payloads component-wise: max of vector
// timestamps, max of per-page notices. Pure, and always returns a fresh
// slice — the inputs may alias pooled wire buffers.
func rcMergePayload(a, b []byte) []byte {
	avt, an := rcDecodePayload(a)
	bvt, bn := rcDecodePayload(b)
	vt := avt
	if len(bvt) > len(vt) {
		vt, bvt = bvt, vt
	}
	vt = append([]uint32(nil), vt...)
	for i, v := range bvt {
		if v > vt[i] {
			vt[i] = v
		}
	}
	notices := make(map[PageNo]uint32, len(an)+len(bn))
	for _, nt := range an {
		if nt.ver > notices[nt.page] {
			notices[nt.page] = nt.ver
		}
	}
	for _, nt := range bn {
		if nt.ver > notices[nt.page] {
			notices[nt.page] = nt.ver
		}
	}
	return rcEncodePayload(vt, notices)
}

// hashState is the RC engine's section of the state fingerprint: vector
// timestamp, applied/noticed versions, live twins, and each home's
// ordering state (version plus the log's version/writer/shape — the
// diff bodies are derivable from the page images already hashed).
// Count-prefixed lists keep the stream unambiguous.
func (m *rcEngine) hashState(put func(uint32), putBody func([]byte)) {
	put(0xffff_fffa)
	for _, v := range m.rc.vt {
		put(v)
	}
	for mark, mp := range []map[PageNo]uint32{m.rc.notices, m.rc.applied} {
		put(uint32(mark + 1))
		put(uint32(len(mp)))
		for _, pg := range sim.SortedKeys(mp) {
			put(uint32(pg))
			put(mp[pg])
		}
	}
	put(3)
	put(uint32(len(m.rc.twins)))
	for _, pg := range sim.SortedKeys(m.rc.twins) {
		put(uint32(pg))
		putBody(m.rc.twins[pg])
	}
	put(4)
	put(uint32(len(m.rc.home)))
	for _, pg := range sim.SortedKeys(m.rc.home) {
		hm := m.rc.home[pg]
		put(uint32(pg))
		put(hm.version)
		put(uint32(len(hm.log)))
		for i := range hm.log {
			put(hm.log[i].version)
			put(uint32(hm.log[i].writer))
			put(uint32(len(hm.log[i].diff.Runs)))
		}
	}
}
