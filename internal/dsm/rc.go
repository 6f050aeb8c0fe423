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
//   - The release also attaches the interval's diffs to its payload,
//     in the writer's representation, as far as they fit the fragments
//     the payload already fills. The engine on the primitive's manager
//     host folds each arriving payload into the primitive's
//     accumulation (rcAccum), which keeps the newest of them per page,
//     and hands each remote grantee only the ones it has not been sent
//     before.
//   - An acquire merges the grant's stamp and catches up each resident
//     page with an outstanding notice: from the diffs the grant carried
//     when they hold every version this host lacks, converting each
//     once, writer to acquirer; otherwise by pulling the home's
//     diff-log suffix this host has not applied. The home retires log
//     entries past a cap; a pull reaching behind the log falls back to
//     the whole page.
//   - A fault fetches the home's current image, which already reflects
//     every pushed interval, so non-resident pages need no pulling.
//
// The engine itself is dsync's consistency model (ReleasePayload,
// AcquirePayload, Released and Grant satisfy dsync.SyncModel
// structurally; dsm does not import dsync), and its declaration names
// sctrace.CheckRC, the happens-before checker, as its trace oracle.

import (
	"cmp"
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
	// shipped is what this host, as a primitive's manager, has sent
	// each remote grantee: per grantee, the newest carried version of
	// each page a grant of its held, in ascending page order. A grant
	// carries only diffs newer than that (Grant).
	shipped [][]rcNotice
	// acc holds, per primitive this host manages, what the releases
	// folded into it have accumulated. dsync names the primitive and
	// folds Grant's answer for this host into its own state hash.
	acc map[uint64]*rcAccum
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
		shipped: make([][]rcNotice, nhosts),
		acc:     make(map[uint64]*rcAccum),
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
	// spareTwins are page-sized twins of released intervals, for
	// rcTwinSpan to take before it allocates one.
	spareTwins [][]byte
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
		sync:       m,
	}
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
	return 0, noAtomicsErr(PolicyRC)
}

// rcFaultPage obtains one page's current image from its home. The fresh
// image reflects every interval pushed so far, so it satisfies every
// write notice this host could hold for the page.
func (m *rcEngine) rcFaultPage(p *sim.Proc, pg PageNo, _ bool) error {
	l := m.faultLockFor(pg)
	l.P(p)
	defer m.trace("fault-serviced", pg)
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
	m.installImage(p, pg, resp, WriteAccess, "fetch")
	m.rc.applied[pg] = resp.Arg(0)
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
		var tw []byte
		if k := len(m.spareTwins); k > 0 {
			tw, m.spareTwins = m.spareTwins[k-1], m.spareTwins[:k-1]
		} else {
			tw = make([]byte, m.cfg.PageSize) // vet:ignore hot-alloc — a twin lives until its interval's release
		}
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

// ReleasePayload closes the current interval: push every twinned
// page's diff to its home (in page order, for determinism) and recycle
// its twin, advance this host's vector timestamp, record the Release,
// and return the encoded (timestamp, notices, carried diffs) payload
// for the releasing primitive.
func (m *rcEngine) ReleasePayload(p *sim.Proc) ([]byte, error) {
	m.exitIfCrashed(p)
	rc := m.rc
	lost := false
	var pushed []rcPushed
	for _, pg := range sim.SortedKeys(rc.twins) {
		tw := rc.twins[pg]
		if tw == nil {
			continue // a concurrent release on this host got here first
		}
		d := m.twinDiff(pg, tw, m.local[pg].data)
		delete(rc.twins, pg) // the interval is closed for this page either way
		// Nothing else holds the twin (d is a copy): the next interval's
		// first write to any page takes it.
		m.spareTwins = append(m.spareTwins, tw)
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
		pushed = append(pushed, rcPushed{page: pg, ver: ver, diff: d})
	}
	rc.vt[m.id]++
	m.recordSyncOp(p, sctrace.Release)
	return m.rcReleasePayload(pushed), nil
}

// rcPushed is one diff of a closing interval, logged at its home as
// version ver.
type rcPushed struct {
	page PageNo
	ver  uint32
	diff conv.Diff
}

// rcReleasePayload encodes this host's timestamp and notices, then the
// interval's pushed diffs (already in page order) that fit the
// fragments the head needs; a diff that would add a fragment is left
// out, and acquirers pull it from the home.
func (m *rcEngine) rcReleasePayload(pushed []rcPushed) []byte {
	rc := m.rc
	pages := sim.SortedKeys(rc.notices)
	size := 8 + 4*len(rc.vt) + 8*len(pages)
	room := m.rcRoom(size)
	n := 0
	for _, d := range pushed {
		if sz := rcCarryHdr + d.diff.EncodedSize(); size+sz <= room {
			size += sz
			pushed[n] = d
			n++
		}
	}
	buf := freshBuf(size)
	binary.BigEndian.PutUint32(buf, uint32(len(rc.vt)))
	off := 4
	for _, v := range rc.vt {
		binary.BigEndian.PutUint32(buf[off:], v)
		off += 4
	}
	binary.BigEndian.PutUint32(buf[off:], uint32(len(pages)))
	off += 4
	for _, pg := range pages {
		binary.BigEndian.PutUint32(buf[off:], uint32(pg))
		binary.BigEndian.PutUint32(buf[off+4:], rc.notices[pg])
		off += 8
	}
	for _, d := range pushed[:n] {
		binary.BigEndian.PutUint32(buf[off:], uint32(d.page))
		binary.BigEndian.PutUint32(buf[off+4:], d.ver)
		binary.BigEndian.PutUint16(buf[off+8:], uint16(m.id))
		binary.BigEndian.PutUint16(buf[off+10:], uint16(m.arch.Kind))
		sz := d.diff.EncodeTo(buf[off+rcCarryHdr:])
		binary.BigEndian.PutUint32(buf[off+12:], uint32(sz))
		off += rcCarryHdr + sz
	}
	return buf
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
		return hm.version, nil
	}
	// Staged in a pooled buffer; Call blocks until the home has
	// acknowledged (retransmissions re-encode from it), so it recycles
	// when rcPushDiff returns.
	wire := bufpool.Get(d.EncodedSize())
	defer bufpool.Put(wire)
	d.EncodeTo(wire)
	resp, err := m.ep.Call(p, home, &proto.Message{
		Kind: proto.KindRCDiff,
		Page: uint32(pg),
		Args: []uint32{uint32(m.id), m.rc.vt[m.id] + 1},
		Data: wire,
	})
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

// AcquirePayload merges a grant's payload into this host's timestamp
// and notices, records the Acquire, and catches up the pages resident
// here that the notices make stale: from the diffs the grant carried
// when they hold every missing version (rcCatchUp), by a pull
// otherwise. A non-resident page needs nothing: its next fault fetches
// the home's current image, which already contains every noticed
// interval.
func (m *rcEngine) AcquirePayload(p *sim.Proc, data []byte) error {
	m.exitIfCrashed(p)
	rc := m.rc
	vt := rcVT(data)
	for i := range min(len(vt)/4, len(rc.vt)) {
		rc.vt[i] = max(rc.vt[i], binary.BigEndian.Uint32(vt[4*i:]))
	}
	for nt := rcNotices(data); len(nt) > 0; nt = nt[8:] {
		pg, ver := PageNo(binary.BigEndian.Uint32(nt)), binary.BigEndian.Uint32(nt[4:])
		if ver > rc.notices[pg] {
			rc.notices[pg] = ver
		}
	}
	m.recordSyncOp(p, sctrace.Acquire)
	stale := slices.DeleteFunc(sim.SortedKeys(rc.notices), func(pg PageNo) bool {
		return rc.notices[pg] <= rc.applied[pg] || !m.hasAccess(pg, false)
	})
	for _, pg := range stale {
		if m.rcCatchUp(p, pg, data[rcHeadLen(data):]) {
			continue
		}
		if err := m.rcPull(p, pg); err != nil {
			return err
		}
	}
	return nil
}

// rcCatchUp brings one stale resident page up to its notice from a
// grant's carried diffs (tail) when they hold every version from the
// one after applied up to the notice, and reports whether it did; it
// changes nothing otherwise, and the caller pulls. Each diff converts
// once, from its writer's representation straight into this host's,
// and this host's own diffs are skipped as rcPull skips them: the copy
// already holds those writes.
func (m *rcEngine) rcCatchUp(p *sim.Proc, pg PageNo, tail []byte) bool {
	rc := m.rc
	if m.dir.home(pg) == m.id {
		return false // rcPull reads the home's version locally
	}
	have, want := rc.applied[pg], rc.notices[pg]
	if want <= have {
		return true // a concurrent catch-up got here while an earlier page yielded
	}
	if want-have > rcLogCap {
		return false
	}
	// The tail lists a page's versions newest first, so the run needed
	// is want, want-1, … have+1 in a row.
	var run [rcLogCap]rcCarried
	n := 0
	for len(tail) > 0 && n < int(want-have) {
		var c rcCarried
		c, tail = rcNextCarried(tail)
		if c.page < pg || c.page == pg && c.ver > want {
			continue
		}
		if c.page > pg || c.ver != want-uint32(n) {
			break
		}
		run[n] = c
		n++
	}
	if n != int(want-have) {
		return false
	}
	for i := n - 1; i >= 0; i-- {
		c := &run[i]
		if c.ver <= rc.applied[pg] {
			continue // a concurrent catch-up or pull on this host got here first
		}
		if c.writer != m.id {
			m.rcApplyCarried(p, pg, c)
		}
		rc.applied[pg] = max(rc.applied[pg], c.ver)
	}
	m.trace("rc-grant-diffs", pg)
	return true
}

// rcApplyCarried converts one carried diff of page pg, which another
// host wrote, and applies it unless a concurrent catch-up or pull got
// past its version while the conversion yielded.
func (m *rcEngine) rcApplyCarried(p *sim.Proc, pg PageNo, c *rcCarried) {
	body := c.rec[rcCarryHdr:]
	buf := bufpool.Get(len(body)) // the payload may be the manager's own: convert a copy
	defer bufpool.Put(buf)
	copy(buf, body)
	d := m.receiveDiff(p, pg, buf, c.src, true)
	if c.ver > m.rc.applied[pg] {
		m.rcApplyDiff(pg, &d)
		m.stats.RCGrantDiffs++
	}
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
	// The reply's wire is this host's until the loop ends: each diff
	// converts in place in it.
	data, src := resp.Data, arch.Kind(resp.SrcArch)
	for off, i := 0, 0; i < int(count); i++ {
		ver := binary.BigEndian.Uint32(data[off:])
		writer := HostID(binary.BigEndian.Uint32(data[off+4:]))
		body := data[off+12 : off+12+int(binary.BigEndian.Uint32(data[off+8:]))]
		off += 12 + len(body)
		if ver <= rc.applied[pg] {
			continue // a concurrent pull on this host already applied it
		}
		if writer != m.id {
			d := m.receiveDiff(p, pg, body, src, true)
			m.rcApplyDiff(pg, &d)
		}
		rc.applied[pg] = ver
	}
	bufpool.Put(resp.TakeWire())
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
	lp := m.localPageFor(pg)
	var local *conv.Diff
	if tw := rc.twins[pg]; tw != nil {
		if d := m.twinDiff(pg, tw, lp.data); !d.Empty() {
			local = &d
		}
	}
	m.installImage(p, pg, resp, WriteAccess, "rc-refetch")
	if tw := rc.twins[pg]; tw != nil {
		copy(tw, lp.data)
		if local != nil {
			m.applyDiff(pg, local, lp.data)
		}
	}
	rc.applied[pg] = version
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
		m.applyDiff(pg, d, tw)
		return
	}
	m.applyDiff(pg, d, m.localPageFor(pg).data)
	if tw != nil {
		m.applyDiff(pg, d, tw)
	}
	m.stats.RCDiffsApplied++
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
	now := m.traceClock()
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
		Data: m.servedPrefix(pg, m.localPageFor(pg).data),
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
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.OwnerProcess.Of(m.arch.Kind)))
	// A copy: the log keeps the diff past the request's wire.
	d := m.receiveDiff(p, pg, req.Data, arch.Kind(req.SrcArch), false)
	bufpool.Put(req.TakeWire())
	hm := m.rcHomeFor(pg)
	m.rcApplyDiff(pg, &d)
	hm.version++
	m.rcLogAppend(hm, rcLogEntry{version: hm.version, writer: writer, diff: d})
	m.rc.applied[pg] = hm.version
	m.trace("rc-diff", pg)
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
			Data: m.servedPrefix(pg, m.localPageFor(pg).data),
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

// rcNotice is one (page, home version) pair: a write notice, or a
// grantee's entry in a manager's shipped record.
type rcNotice struct {
	page PageNo
	ver  uint32
}

// The sync payload is a head, [u32 nvt][vt…][u32 n][page, ver]×n with
// the notices in ascending page order, followed by a tail of carried
// diffs, possibly empty: records [u32 page][u32 ver][u16 writer]
// [u16 writer's arch][u32 size][size bytes of encoded diff, in the
// writer's representation], in ascending page order and, within a
// page, descending version. Every integer is big-endian. The layout is
// canonical, so an accumulation has one encoding and payloads compare
// byte-wise; a payload without carried diffs is the head alone.

// rcCarryHdr is the length of a carried diff record's header.
const rcCarryHdr = 16

// rcSyncEnvelope is the largest envelope a payload rides in: the
// message header and a semaphore or event request's two arguments (a
// grant has none).
var rcSyncEnvelope = (&proto.Message{Args: make([]uint32, 2)}).EncodedSize()

// rcRoom is the fragment rule: the largest payload that needs no more
// fragments than a payload of head bytes. A bulk message pays MsgSetup
// plus FragCost per fragment at each end, so diffs riding in a fragment
// that is sent anyway cost only their wire bytes.
func (m *rcEngine) rcRoom(head int) int {
	par := m.cfg.Params
	return par.Fragments(rcSyncEnvelope+head)*par.MTUPayload - rcSyncEnvelope
}

// rcHeadLen returns the length of a payload's head; nil or empty means
// "nothing released yet", a head of length 0.
func rcHeadLen(data []byte) int {
	if len(data) < 4 {
		return 0
	}
	off := 4 + 4*int(binary.BigEndian.Uint32(data))
	return off + 4 + 8*int(binary.BigEndian.Uint32(data[off:]))
}

// rcCarried is one carried diff record, viewed in place in a payload
// or kept in an accumulation.
type rcCarried struct {
	page   PageNo
	ver    uint32
	writer HostID
	src    arch.Kind
	// rec is the whole record; rec[rcCarryHdr:] is the encoded diff.
	rec []byte
}

// rcNextCarried splits the first record off a payload tail.
func rcNextCarried(tail []byte) (rcCarried, []byte) {
	n := rcCarryHdr + int(binary.BigEndian.Uint32(tail[12:]))
	return rcCarried{
		page:   PageNo(binary.BigEndian.Uint32(tail)),
		ver:    binary.BigEndian.Uint32(tail[4:]),
		writer: HostID(binary.BigEndian.Uint16(tail[8:])),
		src:    arch.Kind(binary.BigEndian.Uint16(tail[10:])),
		rec:    tail[:n],
	}, tail[n:]
}

// rcVT returns the vector-timestamp entries of a payload's head.
func rcVT(data []byte) []byte {
	if len(data) < 4 {
		return nil
	}
	return data[4 : 4+4*int(binary.BigEndian.Uint32(data))]
}

// rcNotices returns the (page, version) entries of a payload's head.
func rcNotices(data []byte) []byte {
	if len(data) < 4 {
		return nil
	}
	return data[8+len(rcVT(data)) : rcHeadLen(data)]
}

// rcAccum is what the releases folded into one primitive have
// accumulated on its manager host: the component-wise maximum of their
// vector timestamps and of their notices (ascending page order), and
// the newest rcLogCap of their carried diffs per page (ascending page
// order, newest version first within a page; two records of one
// version are the same interval's diff). It only grows, so a barrier's
// next round keeps it and refolding a retransmitted release changes
// nothing. enc caches its encoding, the payload layout above, until the
// next fold.
type rcAccum struct {
	vt      []uint32
	notices []rcNotice
	carried []rcCarried
	enc     []byte
}

// Released folds a release's payload into the accumulation of primitive
// prim, which this host manages.
func (m *rcEngine) Released(prim uint64, data []byte) {
	a := m.rc.acc[prim]
	if a == nil {
		a = &rcAccum{}
		m.rc.acc[prim] = a
	}
	a.fold(data)
}

// fold merges one payload into the accumulation in place. data may
// alias a pooled wire buffer: the carried diffs the fold keeps are
// copied into one buffer sized for the payload's tail.
func (a *rcAccum) fold(data []byte) {
	a.enc = nil
	vt := rcVT(data)
	for i := 0; i < len(vt)/4; i++ {
		if i == len(a.vt) {
			a.vt = append(a.vt, 0)
		}
		a.vt[i] = max(a.vt[i], binary.BigEndian.Uint32(vt[4*i:]))
	}
	for nt := rcNotices(data); len(nt) > 0; nt = nt[8:] {
		n := rcNotice{page: PageNo(binary.BigEndian.Uint32(nt)), ver: binary.BigEndian.Uint32(nt[4:])}
		i, found := slices.BinarySearchFunc(a.notices, n.page, func(x rcNotice, pg PageNo) int { return cmp.Compare(x.page, pg) })
		if found {
			a.notices[i].ver = max(a.notices[i].ver, n.ver)
		} else {
			a.notices = slices.Insert(a.notices, i, n)
		}
	}
	tail := data[rcHeadLen(data):]
	buf := freshBuf(len(tail))
	for len(tail) > 0 {
		var c rcCarried
		c, tail = rcNextCarried(tail)
		i, j := rcPageSpan(a.carried, c.page)
		k := i
		for k < j && a.carried[k].ver > c.ver {
			k++
		}
		if k-i == rcLogCap || k < j && a.carried[k].ver == c.ver {
			continue // older than every version kept, or the same interval's diff
		}
		w := copy(buf, c.rec)
		c.rec, buf = buf[:w:w], buf[w:]
		if j-i == rcLogCap {
			copy(a.carried[k+1:j], a.carried[k:j-1]) // the oldest retires
			a.carried[k] = c
		} else {
			a.carried = slices.Insert(a.carried, k, c)
		}
	}
}

// rcPageSpan returns the span [i, j) of records of page pg in cs, which
// is in ascending page order.
func rcPageSpan(cs []rcCarried, pg PageNo) (int, int) {
	i, _ := slices.BinarySearchFunc(cs, pg, func(c rcCarried, pg PageNo) int { return cmp.Compare(c.page, pg) })
	j := i
	for j < len(cs) && cs[j].page == pg {
		j++
	}
	return i, j
}

// size returns the length of the accumulation's encoding, and
// appendHead appends the encoding's head to b.
func (a *rcAccum) size() int {
	n := 8 + 4*len(a.vt) + 8*len(a.notices)
	for _, c := range a.carried {
		n += len(c.rec)
	}
	return n
}

func (a *rcAccum) appendHead(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(a.vt)))
	for _, v := range a.vt {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(a.notices)))
	for _, n := range a.notices {
		b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(b, uint32(n.page)), n.ver)
	}
	return b
}

// encoding returns the whole accumulation as a payload, encoding it at
// most once per fold. It rests in grants and reply caches, so it is
// never written again.
func (a *rcAccum) encoding() []byte {
	if a.enc == nil {
		b := a.appendHead(freshBuf(a.size())[:0])
		for _, c := range a.carried {
			b = append(b, c.rec...)
		}
		a.enc = b
	}
	return a.enc
}

// Grant returns what a grant of primitive prim to host to carries:
// nothing before its first release, and the whole accumulation to this
// host itself. A grant to a remote host carries the head and, of each
// page's carried diffs (newest first), those newer than the version
// this host last shipped to, until one would add a fragment. What it
// ships becomes the record; the grantee ends every acquire with its
// resident copies at least as new as every version it was sent (it
// applies them or pulls past them), and a page it lacks is fetched
// current.
func (m *rcEngine) Grant(prim uint64, to HostID) []byte {
	a := m.rc.acc[prim]
	if a == nil {
		return nil
	}
	if to == m.id || len(a.carried) == 0 {
		return a.encoding()
	}
	size := a.size()
	scratch := bufpool.Get(size)
	defer bufpool.Put(scratch)
	out := a.appendHead(scratch[:0])
	room := m.rcRoom(len(out))
	rec := m.rc.shipped[to]
	j := 0
	for i := 0; i < len(a.carried); {
		page := a.carried[i].page
		_, k := rcPageSpan(a.carried, page)
		group := a.carried[i:k]
		i = k
		for j < len(rec) && rec[j].page < page {
			j++
		}
		var sent uint32 // the page's version in the record before this grant
		if j < len(rec) && rec[j].page == page {
			sent = rec[j].ver
		}
		// Newest first: a catch-up needs every version up to its notice,
		// so an older diff is useless without all newer ones, and the page
		// stops at the first one that was sent already or would add a
		// fragment.
		var newest uint32
		for _, c := range group {
			if c.ver <= sent || len(out)+len(c.rec) > room {
				break
			}
			out = append(out, c.rec...)
			newest = max(newest, c.ver)
		}
		switch {
		case newest == 0:
		case sent > 0:
			rec[j].ver = newest
		default:
			rec = slices.Insert(rec, j, rcNotice{page: page, ver: newest})
		}
	}
	m.rc.shipped[to] = rec
	cut := freshBuf(len(out)) // exactly sized: the reply cache keeps it
	copy(cut, out)
	if len(cut) == size && a.enc == nil {
		a.enc = cut // it carries every record: the whole accumulation
	}
	return cut
}

// hashState is the RC engine's section of the state fingerprint: vector
// timestamp, applied/noticed versions, live twins, each home's
// ordering state (version plus the log's version/writer/shape — the
// diff bodies are derivable from the page images already hashed), and
// the shipped record per grantee, which decides what later grants
// carry.
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
	put(5)
	for _, rec := range m.rc.shipped {
		put(uint32(len(rec)))
		for _, s := range rec {
			put(uint32(s.page))
			put(s.ver)
		}
	}
}
