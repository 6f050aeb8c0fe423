package dsm

// The SC-ABD quorum replication engine (PolicyQuorum): Attiya–Bar-Noy–
// Dolev majority voting adapted to a sequentially consistent DSM, after
// Ekström & Haridi's compositionally verified design. Every host keeps
// a replica of every page stamped with a tag — a (timestamp, writer
// host) pair ordered lexicographically — and every operation talks to a
// majority:
//
//	read:  query a majority for their versions (phase 1), adopt the
//	       highest tag's image, and write that winner back to a
//	       majority (phase 2) before returning — unless phase 1 already
//	       proved a majority stores it. The write-back is what makes
//	       reads safe: once a read returns a value, a majority stores
//	       it, so no later read can return an older one (the new/old
//	       inversion sequential consistency forbids).
//	write: query a majority for their versions, pick a tag strictly
//	       above every one seen (timestamp+1, writer host as the
//	       tiebreaker), and install value+tag at a majority.
//
// Any two majorities intersect, so each operation observes the globally
// newest completed version, and the virtual-time order of quorum
// completions is a sequentially consistent witness. Replicas live in
// their holder's native representation; page images travel in the
// sender's format and convert on receipt, exactly like an MRSW page
// transfer, so unlike architectures interoperate.
//
// A version travels as a typed diff wherever the receiver holds the
// version it was written over. Phase 2 of a write ships the written
// elements against the version phase 1 adopted, and a phase-1 reply to
// an asker one version behind carries the diff that produced the newer
// one. A tag names exactly one image (a writer never reuses its own
// timestamp), so a replica holding the diff's base tag holds its base
// image, and applying the diff there yields the writer's image
// (conv.Diff converts like the page it came from). Everyone else gets
// the whole image.
//
// Availability is the point: an operation completes inside any network
// component holding a majority of the hosts — the one engine that stays
// live through partitions. Fan-outs ride partition blips out with
// capped exponential virtual-time backoff (jitter from the seeded RNG,
// drawn only on this path, so no-fault runs stay bit-identical) and
// escalate to ErrHostDown only when the failure detector has declared
// so many replicas dead that no majority can ever answer again.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// quorumTag is a page version: a Lamport-style timestamp with the
// writing host as tiebreaker, ordered lexicographically. The zero tag
// is the allocation-time version every replica starts from.
type quorumTag struct {
	ts   uint32
	host HostID
}

// less reports whether t orders strictly before o.
func (t quorumTag) less(o quorumTag) bool {
	if t.ts != o.ts {
		return t.ts < o.ts
	}
	return t.host < o.host
}

// argTag reads the tag a message carries in its args i and i+1.
func argTag(msg *proto.Message, i int) quorumTag {
	return quorumTag{ts: msg.Arg(i), host: HostID(msg.Arg(i + 1))}
}

// The body shapes of quorum messages, beyond a version's tag in args 0
// and 1. A phase-1 reply whose arg 2 is quorumDiffBody carries the
// typed diff from the asker's version, not the image. A phase-2 request
// with four args carries the diff from the version tagged in args 2 and
// 3; an ack whose arg 0 is quorumNeedImage refuses it, the replica
// holding neither that base nor anything at or above the new tag.
const (
	quorumDiffBody  = 1
	quorumNeedImage = 1
)

// quorumMajority returns the quorum size over n replicas: the smallest
// set size any two of which must intersect.
func quorumMajority(n int) int { return n/2 + 1 }

// quorumPage is one host's replica of a page: the image in this host's
// native representation plus its version tag. A replica is a
// copy-on-write version: a phase-1 reply carries the image itself
// (shared), and the reply cache may resend it, so whatever changes a
// shared image first moves the replica to a fresh frame (unshare).
type quorumPage struct {
	data   []byte
	tag    quorumTag
	shared bool
	// diff is the wire form, in this host's representation, of the
	// typed diff that produced this version from version base — nil when
	// the version arrived whole. Each version's diff has a pooled buffer
	// of its own; one a phase-1 reply carries (diffShared) stays with
	// the reply cache instead of going back to the pool.
	diff       []byte
	base       quorumTag
	diffShared bool
}

// setVersion stamps the replica with tag, whose image data now holds,
// and records a copy of diff as the diff that produced it from base
// (nil: the version arrived whole).
func (qp *quorumPage) setVersion(tag, base quorumTag, diff []byte) {
	if !qp.diffShared {
		bufpool.Put(qp.diff)
	}
	qp.tag, qp.base, qp.diff, qp.diffShared = tag, base, nil, false
	if diff != nil {
		qp.diff = bufpool.Get(len(diff))
		copy(qp.diff, diff)
	}
}

// unshare makes the replica's image safe to change in place. A shared
// image stays with the replies that hold it; the replica moves to a
// fresh frame that keeps the old bytes from `from` on, the caller
// writing the rest — so an install builds its new image in one pass.
func (qp *quorumPage) unshare(from int) {
	if !qp.shared {
		return
	}
	img := make([]byte, len(qp.data)) // vet:ignore hot-alloc — the old frame is a page version a cached reply still holds
	copy(img[from:], qp.data[from:])
	qp.data, qp.shared = img, false
}

// qrmPageFor returns (creating zero-filled at the zero tag if needed)
// this host's replica of a page.
func (m *quorumEngine) qrmPageFor(page PageNo) *quorumPage {
	qp := m.qrm[page]
	if qp == nil {
		qp = &quorumPage{data: make([]byte, m.cfg.PageSize)} // vet:ignore hot-alloc — replica frames live for the run and must be zero-filled
		m.qrm[page] = qp
	}
	return qp
}

// quorumEngine is PolicyQuorum's replication engine. Region operations
// run page by page: each page access is one full quorum operation,
// serialized per page by the local fault lock.
type quorumEngine struct {
	*Module
	// qrm holds this host's replica of every page it has touched.
	// Replicas live here, not in the module's resident-page table:
	// tag-ordered versions are not MRSW residency and stay invisible to
	// the MRSW invariants and the module's hash sections.
	qrm map[PageNo]*quorumPage
	// peers lists every other host in ID order — the fan-out targets of
	// a quorum round (this host's own replica is the remaining vote).
	peers []HostID
}

func newQuorumEngine(mod *Module) (engine, engineDecl) {
	m := &quorumEngine{Module: mod, qrm: make(map[PageNo]*quorumPage)}
	for i := range m.hosts {
		if HostID(i) != m.id {
			m.peers = append(m.peers, HostID(i))
		}
	}
	m.ep.HandleEvent(proto.KindQuorumRead, remoteop.EventHandler{Charge: m.quorumReadCharge, Reply: m.handleQuorumRead})
	m.ep.Handle(proto.KindQuorumWrite, m.handleQuorumWrite)
	return m, engineDecl{
		invariants: checkQuorumPage,
		pages:      func() []PageNo { return sim.SortedKeys(m.qrm) },
		hashState:  m.hashState,
	}
}

func (m *quorumEngine) readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error {
	return m.walkPages(addr, n, func(s span) error {
		t0 := m.traceClock()
		l := m.faultLockFor(s.page)
		l.P(p)
		defer l.V()
		qp, err := m.quorumReadPage(p, s.page)
		if err != nil {
			return err
		}
		seg := qp.data[s.lo : s.lo+s.n]
		fn(seg, s.off)
		m.recordSC(p, sctrace.Read, t0, s.addr, seg)
		return nil
	})
}

func (m *quorumEngine) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	return m.walkPages(addr, n, func(s span) error {
		t0 := m.traceClock()
		l := m.faultLockFor(s.page)
		l.P(p)
		defer l.V()
		var h sctrace.Handle
		err := m.quorumWritePage(p, s.page, s.lo, s.n, func(qp *quorumPage) {
			seg := qp.data[s.lo : s.lo+s.n]
			fill(seg, s.off)
			// Phase 1 has fixed the value, and phase 2 may hand it to a
			// reader before this write completes — or the writer may
			// crash with the value on its way: the trace holds it as
			// pending until then.
			h = m.invokeSC(p, sctrace.Write, t0, s.addr, seg)
		})
		if err != nil {
			return err
		}
		m.completeSC(h)
		return nil
	})
}

// atomicSwap is refused: majority-replicated registers admit no
// consensus-free read-modify-write.
func (m *quorumEngine) atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	return 0, noAtomicsErr(PolicyQuorum)
}

// quorumReadPage is one full SC-ABD read of a page. The caller holds
// the page's fault lock; the returned replica holds the read's result
// in this host's native representation.
func (m *quorumEngine) quorumReadPage(p *sim.Proc, page PageNo) (*quorumPage, error) {
	m.stats.QuorumReads++
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind)))
	if m.cfg.Mutation == MutStaleQuorumRead {
		// Injected bug: trust the local replica without consulting a
		// majority or writing the winner back.
		return m.qrmPageFor(page), nil
	}
	qp, confirmed, err := m.quorumCollect(p, page)
	if err != nil {
		return nil, err
	}
	if !confirmed {
		// Phase 2: store what this read returns at a majority, so no
		// later read anywhere can return an older version.
		if err := m.quorumPush(p, page, qp); err != nil {
			return nil, err
		}
		m.stats.QuorumWriteBacks++
	}
	m.trace("quorum-read", page)
	return qp, nil
}

// quorumWritePage is one full SC-ABD write of a page. The caller holds
// the page's fault lock; mutate edits bytes [lo, lo+n) of the local
// replica's image in place after phase 1 has made it current, and phase
// 2 ships those elements as a diff against the version mutate changed.
func (m *quorumEngine) quorumWritePage(p *sim.Proc, page PageNo, lo, n int, mutate func(qp *quorumPage)) error {
	m.stats.QuorumWrites++
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind)))
	// Injected bug (MutSplitBrainWrite): install locally and declare
	// success without a majority — no quorum ever orders this write
	// against others.
	splitBrain := m.cfg.Mutation == MutSplitBrainWrite
	qp := m.qrmPageFor(page)
	if !splitBrain {
		var err error
		if qp, _, err = m.quorumCollect(p, page); err != nil {
			return err
		}
	}
	qp.unshare(0)
	base := qp.tag
	mutate(qp)
	d := m.writeDiff(page, qp.data, lo, n)
	diff := bufpool.Get(d.EncodedSize())
	defer bufpool.Put(diff)
	d.EncodeTo(diff)
	qp.setVersion(quorumTag{ts: base.ts + 1, host: m.id}, base, diff)
	if !splitBrain {
		if err := m.quorumPushDiff(p, page, qp, base, diff); err != nil {
			return err
		}
	}
	m.trace("quorum-write", page)
	return nil
}

// writeDiff is the typed diff a write of image's bytes [lo, lo+n)
// made: one run of the written span, rounded out to whole elements of
// the page's type. Its Data aliases image.
func (m *quorumEngine) writeDiff(page PageNo, image []byte, lo, n int) conv.Diff {
	mt := m.meta[page]
	sz := m.cfg.Registry.MustGet(mt.typeID).Size
	e0, e1 := lo/sz, (lo+n+sz-1)/sz
	return conv.Diff{
		Type: mt.typeID,
		Runs: []conv.DiffRun{{Elem: uint32(e0), Count: uint32(e1 - e0)}},
		Data: image[e0*sz : e1*sz],
	}
}

// quorumCollect runs phase 1 of an SC-ABD operation: query replicas
// until a majority (counting this host's own) has answered, adopt the
// highest tag seen, and report whether that winner is already proven to
// be stored at a majority (every phase-1 vote carried it). The caller
// holds the page's fault lock.
func (m *quorumEngine) quorumCollect(p *sim.Proc, page PageNo) (qp *quorumPage, confirmed bool, err error) {
	qp = m.qrmPageFor(page)
	maj := quorumMajority(len(m.hosts))
	if maj == 1 {
		return qp, true, nil // single-host cluster: the replica is the majority
	}
	for {
		// The query carries this replica's tag, so that only a newer
		// replica answers with a body: every message of the fan-out
		// shares one args slice.
		asked := qp.tag
		args := []uint32{asked.ts, uint32(asked.host)}
		replies, err := m.quorumFanout(p, page, maj-1, func(dst HostID) *proto.Message {
			return &proto.Message{Kind: proto.KindQuorumRead, Page: uint32(page), Args: args}
		})
		if err != nil {
			return nil, false, err
		}
		winner := qp.tag
		winIdx := -1
		for i, r := range replies {
			if r != nil && winner.less(argTag(r, 0)) {
				winner = argTag(r, 0)
				winIdx = i
			}
		}
		ok := true
		if winIdx >= 0 {
			// A peer holds a newer version: install it locally. The
			// winner's tag orders above the one this query carried — the
			// replica's tags never regress — so its reply carries a body:
			// the image, or the diff from the asked version.
			r := replies[winIdx]
			var installed bool
			installed, ok = m.install(p, page, qp, winner, asked, r.Arg(2) == quorumDiffBody, r.Data, arch.Kind(r.SrcArch))
			if installed {
				m.countFetch(page, len(r.Data), "fetch")
			}
		}
		votes := 0
		if qp.tag == winner {
			votes++
		}
		for _, r := range replies {
			if r != nil && argTag(r, 0) == winner {
				votes++
			}
		}
		for _, r := range replies {
			if r != nil {
				bufpool.Put(r.TakeWire())
			}
		}
		if ok {
			return qp, votes >= maj, nil
		}
		// The winner came as a diff from the asked version, and a
		// concurrent install has moved the replica to a version between
		// the two: ask again from there.
	}
}

// install makes a received version of page this replica's, unless the
// replica already holds it or a newer one. The body — in src's
// representation, converted in place, so its wire buffer must be this
// host's — is the version's whole image (allocated prefix), or, when
// isDiff, the typed diff that produced it from version base. The
// replica is re-checked after the conversion sleep: a concurrent
// install may have advanced it, and a tag must never regress. ok is
// false when the replica can take the version neither way: it holds
// neither the diff's base nor anything at or above tag.
func (m *quorumEngine) install(p *sim.Proc, page PageNo, qp *quorumPage, tag, base quorumTag, isDiff bool, body []byte, src arch.Kind) (installed, ok bool) {
	if !qp.tag.less(tag) {
		return false, true
	}
	if !isDiff {
		m.convertIn(p, page, body, src)
		if !qp.tag.less(tag) {
			return false, true
		}
		qp.unshare(len(body))
		copy(qp.data, body)
		qp.setVersion(tag, quorumTag{}, nil)
		return true, true
	}
	if qp.tag != base {
		return false, false
	}
	d := m.receiveDiff(p, page, body, src, true)
	if qp.tag != base {
		return false, !qp.tag.less(tag)
	}
	qp.unshare(0)
	m.applyDiff(page, &d, qp.data)
	qp.setVersion(tag, base, body)
	return true, true
}

// quorumPushDiff runs phase 2 of a write: store version qp.tag at a
// majority by shipping diff, the pooled wire form of the diff that
// produced it from version base. A replica at base applies it, one at
// or above the new tag acks without effect, and any other refuses it;
// a refusal among the majority's answers completes the round with the
// whole image instead. That image is the replica's current version:
// this write's, or a newer one installed meanwhile, which stores a tag
// at or above this write's at a majority just the same. The caller
// holds the page's fault lock.
func (m *quorumEngine) quorumPushDiff(p *sim.Proc, page PageNo, qp *quorumPage, base quorumTag, diff []byte) error {
	maj := quorumMajority(len(m.hosts))
	if maj == 1 {
		return nil
	}
	args := []uint32{qp.tag.ts, uint32(qp.tag.host), base.ts, uint32(base.host)}
	replies, err := m.quorumFanout(p, page, maj-1, func(dst HostID) *proto.Message {
		return &proto.Message{Kind: proto.KindQuorumWrite, Page: uint32(page), Args: args, Data: diff}
	})
	if err != nil {
		return err
	}
	for _, r := range replies {
		if r != nil && r.Arg(0) == quorumNeedImage {
			return m.quorumPush(p, page, qp)
		}
	}
	m.stats.QuorumDiffPushes++
	return nil
}

// quorumPush runs phase 2 of an SC-ABD operation with the whole image:
// store this host's current replica (value and tag) at a majority. The
// image is snapshotted into a pooled buffer first so retransmissions
// inside the fan-out cannot pick up concurrent local updates. The
// caller holds the page's fault lock.
func (m *quorumEngine) quorumPush(p *sim.Proc, page PageNo, qp *quorumPage) error {
	maj := quorumMajority(len(m.hosts))
	if maj == 1 {
		return nil
	}
	m.stats.QuorumImagePushes++
	args := []uint32{qp.tag.ts, uint32(qp.tag.host)}
	data := bufpool.Get(m.meta[page].used)
	defer bufpool.Put(data)
	copy(data, qp.data[:len(data)])
	_, err := m.quorumFanout(p, page, maj-1, func(dst HostID) *proto.Message {
		return &proto.Message{Kind: proto.KindQuorumWrite, Page: uint32(page), Args: args, Data: data}
	})
	return err
}

// quorumFanout runs one quorum round: fan the request out to every
// peer and return once `need` of them have replied (the initiator's own
// replica is the vote that completes the majority). Partition blips —
// enough peers alive, a quorum of them unreachable this instant — are
// ridden out with capped exponential virtual-time backoff instead of
// escalating; only the failure detector proving that no majority can
// ever answer again (a majority of replicas dead) surfaces ErrHostDown.
// The replies slice is indexed like m.peers, nil for stragglers;
// the caller owns the non-nil replies' wire buffers.
func (m *quorumEngine) quorumFanout(p *sim.Proc, page PageNo, need int, mk func(dst HostID) *proto.Message) ([]*proto.Message, error) {
	backoff := sim.Duration(m.cfg.Params.RequestTimeout)
	for {
		// The caller holds the page's fault lock across the round; the
		// replicas answer without taking any lock, so the cross-host wait
		// cannot cycle.
		replies, err := m.ep.CallQuorum(p, m.peers, need, mk)
		if err == nil {
			return replies, nil
		}
		if errors.Is(err, remoteop.ErrPeerDead) {
			// The detector has declared so many replicas dead that no
			// majority can ever answer: permanent, not a partition.
			return nil, m.callFailed(fmt.Errorf("%w: page %d has no live quorum: %v", ErrHostDown, page, err),
				"host %d quorum round for page %d", m.id, page)
		}
		// A majority is alive but unreachable this instant — the
		// partition case quorum replication exists for, with or without
		// a failure detector. Back off and retry: exponential, capped at
		// the blocking retry interval, with jitter from the seeded RNG
		// (drawn only on this path, so fault-free runs never consume it).
		m.stats.QuorumRetries++
		m.trace("quorum-retry", page)
		backoff = m.retryPause(p, backoff)
	}
}

// quorumReadCharge prices a phase-1 query: one remote-operation
// process time on the protocol CPU. A crashed replica answers nothing.
func (m *quorumEngine) quorumReadCharge(req *proto.Message) (*sim.Resource, sim.Duration, bool) {
	if m.ep.Crashed() {
		return nil, 0, false
	}
	return m.protoCPU, m.jittered(m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind)), true
}

// handleQuorumRead answers a phase-1 query, once quorumReadCharge is
// paid, with this replica's version: its tag in the args and, when that
// tag orders above the asker's, a body in the data. An asker holding
// exactly the version this one was written over gets the diff that
// produced it; any other older asker gets the image (allocated prefix),
// and one that already holds this version or a newer one gets the tag
// alone. Both bodies are native representation and the replica's own,
// not copies: the replica marks them shared, and the reply cache's
// resend check (remoteop) enforces that nothing changes them
// afterwards. It takes no locks, deliberately: the replica may itself
// be parked inside a quorum round holding its local fault lock.
func (m *quorumEngine) handleQuorumRead(req *proto.Message) *proto.Message {
	page := PageNo(req.Page)
	asker := argTag(req, 0)
	bufpool.Put(req.TakeWire())
	qp := m.qrmPageFor(page)
	args := []uint32{qp.tag.ts, uint32(qp.tag.host), quorumDiffBody}
	reply := &proto.Message{Kind: proto.KindQuorumReadReply, Page: req.Page, Args: args[:2]}
	switch {
	case !asker.less(qp.tag):
	case qp.diff != nil && qp.base == asker:
		qp.diffShared = true
		reply.Args = args
		reply.Data = qp.diff
	default:
		qp.shared = true
		reply.Data = qp.data[:m.meta[page].used]
	}
	return reply
}

// handleQuorumWrite installs a phase-2 version — an image, or a diff
// from the base tag in args 2 and 3 — at this replica if the tag orders
// above the one it holds. Stale and duplicate installs are acknowledged
// without effect, which is what makes phase 2 idempotent under
// retransmission; a diff the replica cannot apply is refused, and the
// writer sends the image. Lock-free like handleQuorumRead.
func (m *quorumEngine) handleQuorumWrite(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	page := PageNo(req.Page)
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind)))
	ack := &proto.Message{Kind: proto.KindQuorumWriteAck, Page: req.Page}
	// The body converts in place in the request's wire buffer.
	installed, ok := m.install(p, page, m.qrmPageFor(page), argTag(req, 0), argTag(req, 2), len(req.Args) > 2, req.Data, arch.Kind(req.SrcArch))
	if !installed && !ok {
		ack.Args = []uint32{quorumNeedImage}
	}
	bufpool.Put(req.TakeWire())
	m.trace("quorum-install", page)
	m.ep.Reply(p, req, ack)
}

// checkQuorumPage is the quorum engine's declared invariant for one
// page: every replica buffer is page-sized, every version tag names a
// known writer, the replicated allocation metadata is sane, and a tag
// names one image — two live replicas on compatible machines holding
// the same written version hold the same allocated prefix, which is
// what lets a diff applied at its base tag reproduce the writer's
// image. Version agreement is deliberately NOT asserted — replicas
// legitimately diverge between quorum rounds (only a majority need hold
// the newest version); the SC trace checker is what audits the values
// reads actually return.
func checkQuorumPage(c *InvariantChecker, point string, page PageNo, writers, holders []HostID) {
	c.uniqueWriter(point, page, writers)
	var seen []*Module // the first live holder of each written version, per machine representation
	for _, mod := range c.mods {
		if mod.ep.Crashed() {
			continue
		}
		qp := mod.engine.(*quorumEngine).qrm[page]
		if qp == nil {
			continue
		}
		if len(qp.data) != mod.cfg.PageSize {
			c.report(point, page, "host %d holds a %d-byte replica of a %d-byte page",
				mod.id, len(qp.data), mod.cfg.PageSize)
		}
		if qp.tag != (quorumTag{}) && c.byID(qp.tag.host) == nil {
			c.report(point, page, "host %d's replica tag names unknown writer %d",
				mod.id, qp.tag.host)
		}
		c.checkMeta(point, page, mod)
		if qp.tag == (quorumTag{}) {
			continue
		}
		i := slices.IndexFunc(seen, func(o *Module) bool {
			return o.engine.(*quorumEngine).qrm[page].tag == qp.tag && o.arch.Compatible(mod.arch)
		})
		if i < 0 {
			seen = append(seen, mod)
			continue
		}
		o := seen[i]
		oq := o.engine.(*quorumEngine).qrm[page]
		n := min(o.meta[page].used, mod.meta[page].used, len(oq.data), len(qp.data))
		if !bytes.Equal(oq.data[:n], qp.data[:n]) {
			c.report(point, page, "hosts %d and %d hold different images of version %v",
				o.id, mod.id, qp.tag)
		}
	}
}

// hashState is the quorum engine's section of the state fingerprint:
// each replica's tag plus the allocated prefix of its image. The stored
// diff is left out: it decides only how large a later reply is, so
// when it arrives, and virtual time is no part of a fingerprint either.
func (m *quorumEngine) hashState(put func(uint32), putBody func([]byte)) {
	put(0xffff_fffb)
	for _, pg := range sim.SortedKeys(m.qrm) {
		qp := m.qrm[pg]
		put(uint32(pg))
		put(qp.tag.ts)
		put(uint32(qp.tag.host))
		putBody(m.hashedPrefix(pg, qp.data))
	}
}
