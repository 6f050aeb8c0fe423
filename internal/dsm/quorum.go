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
// Availability is the point: an operation completes inside any network
// component holding a majority of the hosts — the one engine that stays
// live through partitions. Fan-outs ride partition blips out with
// capped exponential virtual-time backoff (jitter from the seeded RNG,
// drawn only on this path, so no-fault runs stay bit-identical) and
// escalate to ErrHostDown only when the failure detector has declared
// so many replicas dead that no majority can ever answer again.

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/bufpool"
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
	m.ep.Handle(proto.KindQuorumRead, m.handleQuorumRead)
	m.ep.Handle(proto.KindQuorumWrite, m.handleQuorumWrite)
	return m, engineDecl{
		invariants: checkQuorumPage,
		pages:      func() []PageNo { return sim.SortedKeys(m.qrm) },
		hashState:  m.hashState,
	}
}

func (m *quorumEngine) readRegion(p *sim.Proc, addr Addr, n int, fn func(seg []byte, off int)) error {
	return m.walkPages(addr, n, func(s span) error {
		t0 := p.Now()
		l := m.faultLockFor(s.page)
		l.P(p)
		defer l.V()
		qp, err := m.quorumReadPage(p, s.page)
		if err != nil {
			return err
		}
		seg := qp.data[s.lo : s.lo+s.n]
		fn(seg, s.off)
		if m.cfg.Mutation != MutStaleQuorumRead {
			// An ABD read COMMITS the value it returns: before returning,
			// a majority provably stores it (phase 1 confirmed it, or
			// phase 2 wrote it back). The value's own writer, though, may
			// record its write much later (still collecting acks) or
			// never (crashed mid-push) — so the read itself enters what
			// it committed into the witness, as a synthetic point write
			// backdated to the read's start. Backdating makes the entry
			// safe: phase-1 replies arrive after t0, and any NEWER
			// version reaches a majority only after some replica that
			// answered this read installs it — strictly after its reply,
			// hence after t0 — so this record can never supersede a newer
			// committed version in the completion-ordered witness. The
			// stale-read mutation commits nothing and must not get the
			// record, or it would legitimize its own stale returns.
			m.recordSCAt(p, sctrace.Write, t0, t0, s.addr, seg)
		}
		m.recordSC(p, sctrace.Read, t0, s.addr, seg)
		return nil
	})
}

func (m *quorumEngine) writeRegion(p *sim.Proc, addr Addr, n int, fill func(seg []byte, off int)) error {
	return m.walkPages(addr, n, func(s span) error {
		t0 := p.Now()
		l := m.faultLockFor(s.page)
		l.P(p)
		defer l.V()
		var seg []byte
		err := m.quorumWritePage(p, s.page, func(qp *quorumPage) {
			seg = qp.data[s.lo : s.lo+s.n]
			fill(seg, s.off)
		})
		if err != nil {
			return err
		}
		m.recordSC(p, sctrace.Write, t0, s.addr, seg)
		return nil
	})
}

func (m *quorumEngine) atomicSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	panic("dsm: atomic operations are not defined under the quorum policy (majority-replicated registers admit no consensus-free read-modify-write); use the distributed synchronization facility")
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
// the page's fault lock; mutate edits the local replica's image in
// place after phase 1 has made it current.
func (m *quorumEngine) quorumWritePage(p *sim.Proc, page PageNo, mutate func(qp *quorumPage)) error {
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
	mutate(qp)
	qp.tag = quorumTag{ts: qp.tag.ts + 1, host: m.id}
	if !splitBrain {
		if err := m.quorumPush(p, page, qp); err != nil {
			return err
		}
		m.trace("quorum-write", page)
	}
	m.checkpoint("quorum-write", page)
	return nil
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
	replies, err := m.quorumFanout(p, page, maj-1, func(dst HostID) *proto.Message {
		return &proto.Message{Kind: proto.KindQuorumRead, Page: uint32(page)}
	})
	if err != nil {
		return nil, false, err
	}
	winner := qp.tag
	winIdx := -1
	for i, r := range replies {
		if r == nil {
			continue
		}
		t := quorumTag{ts: r.Arg(0), host: HostID(r.Arg(1))}
		if winner.less(t) {
			winner = t
			winIdx = i
		}
	}
	if winIdx >= 0 && qp.tag.less(winner) {
		// A peer holds a newer version: install its image locally,
		// converting from the peer's native representation. The replica
		// is re-checked after the conversion sleep — a concurrent
		// inbound quorum write may have advanced it past the winner,
		// and a tag must never regress. The body converts in place: its
		// wire buffer is this host's until the TakeWire below.
		r := replies[winIdx]
		m.convertIn(p, page, r.Data, arch.Kind(r.SrcArch))
		if qp.tag.less(winner) {
			qp.unshare(len(r.Data))
			copy(qp.data, r.Data)
			qp.tag = winner
			m.countFetch(page, len(r.Data), "fetch")
		}
	}
	votes := 0
	if qp.tag == winner {
		votes++
	}
	for _, r := range replies {
		if r != nil && (quorumTag{ts: r.Arg(0), host: HostID(r.Arg(1))}) == winner {
			votes++
		}
	}
	for _, r := range replies {
		if r != nil {
			bufpool.Put(r.TakeWire())
		}
	}
	return qp, votes >= maj, nil
}

// quorumPush runs phase 2 of an SC-ABD operation: store this host's
// current replica (value and tag) at a majority. The image is
// snapshotted into a pooled buffer first so retransmissions inside the
// fan-out cannot pick up concurrent local updates. The caller holds the
// page's fault lock.
func (m *quorumEngine) quorumPush(p *sim.Proc, page PageNo, qp *quorumPage) error {
	maj := quorumMajority(len(m.hosts))
	if maj == 1 {
		return nil
	}
	tag := qp.tag
	data := m.servedPrefix(page, qp.data, bufpool.Get)
	_, err := m.quorumFanout(p, page, maj-1, func(dst HostID) *proto.Message {
		return &proto.Message{
			Kind: proto.KindQuorumWrite,
			Page: uint32(page),
			Args: []uint32{tag.ts, uint32(tag.host)},
			Data: data,
		}
	})
	bufpool.Put(data)
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
		// Without failure detection a quorum timeout is a protocol bug,
		// exactly like any other unanswered call.
		m.mustDetect(err, "host %d quorum round for page %d", m.id, page)
		// A majority is alive but unreachable this instant — the
		// partition case quorum replication exists for. Back off and
		// retry: exponential, capped at the blocking retry interval,
		// with jitter from the seeded RNG (drawn only on this path, so
		// fault-free runs never consume it).
		m.stats.QuorumRetries++
		m.trace("quorum-retry", page)
		backoff = m.retryPause(p, backoff)
	}
}

// handleQuorumRead answers a phase-1 query with this replica's version:
// tag in the args, image (allocated prefix, native representation) in
// the data. The body is the replica's own image, not a copy: the
// replica is marked shared, and the reply cache's resend check
// (remoteop) enforces that nothing changes it afterwards. It takes no
// locks, deliberately: the replica may itself be parked inside a quorum
// round holding its local fault lock.
func (m *quorumEngine) handleQuorumRead(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	page := PageNo(req.Page)
	bufpool.Put(req.TakeWire())
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind)))
	qp := m.qrmPageFor(page)
	qp.shared = true
	m.ep.Reply(p, req, &proto.Message{
		Kind: proto.KindQuorumReadReply,
		Page: req.Page,
		Args: []uint32{qp.tag.ts, uint32(qp.tag.host)},
		Data: qp.data[:m.meta[page].used],
	})
}

// handleQuorumWrite installs a (value, tag) version at this replica if
// the tag orders above the one it holds — stale and duplicate installs
// are acknowledged without effect, which is what makes phase 2
// idempotent under retransmission. Lock-free like handleQuorumRead.
func (m *quorumEngine) handleQuorumWrite(p *sim.Proc, req *proto.Message) {
	m.exitIfCrashed(p)
	page := PageNo(req.Page)
	tag := quorumTag{ts: req.Arg(0), host: HostID(req.Arg(1))}
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind)))
	qp := m.qrmPageFor(page)
	if qp.tag.less(tag) {
		// The body converts in place in the request's wire buffer.
		m.convertIn(p, page, req.Data, arch.Kind(req.SrcArch))
		// Re-check after the conversion sleep: a concurrent install may
		// have advanced the replica past this version.
		if qp.tag.less(tag) {
			qp.unshare(len(req.Data))
			copy(qp.data, req.Data)
			qp.tag = tag
			m.trace("quorum-install", page)
		}
	}
	bufpool.Put(req.TakeWire())
	m.checkpoint("quorum-install", page)
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindQuorumWriteAck, Page: req.Page})
}

// checkQuorumPage is the quorum engine's declared invariant for one
// page: every replica buffer is page-sized, every version tag names a
// known writer, and the replicated allocation metadata is sane. Version
// agreement is deliberately NOT asserted — replicas legitimately diverge
// between quorum rounds (only a majority need hold the newest version);
// the SC trace checker is what audits the values reads actually return.
func checkQuorumPage(c *InvariantChecker, point string, page PageNo, writers, holders []HostID) {
	c.uniqueWriter(point, page, writers)
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
	}
}

// hashState is the quorum engine's section of the state fingerprint:
// each replica's tag plus the allocated prefix of its image.
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
