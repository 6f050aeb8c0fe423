package dsm

// The write-update coherence policy (full replication): pages replicate
// on read exactly as under MRSW, but writes never invalidate. Instead
// the writer sends the written bytes to the page's manager, which
// sequences the update (per-page total order) and pushes it to every
// replica holder with one multicast; the writer applies it locally when
// the manager acknowledges. Replicas are therefore never torn down —
// reads stay local forever — at the price of a sequencing round trip
// per write burst. The fourth algorithm of the companion study's
// spectrum (§2.1): it shines for read-mostly data with small, frequent
// writes, where MRSW would invalidate and re-fault whole pages.

import (
	"slices"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/proto"
	"repro/internal/sim"
)

// sequenceWrite routes one span's bytes through the page's manager and
// applies them locally once sequenced. A writer whose sequencing call
// fails keeps its replica, which may be the copy the manager records as
// the page's owner. If the manager sequences the write all the same, it
// pushes it to the writer too (sequenceUpdate).
func (m *updateEngine) sequenceWrite(p *sim.Proc, page PageNo, offset int, data []byte) error {
	if m.cfg.Mutation == MutUnsequencedUpdate {
		// Injected bug: apply locally without sequencing through the
		// manager — no replica ever hears about this write.
		if lp := m.local[page]; lp != nil && lp.access != NoAccess {
			copy(lp.data[offset:], data)
		}
		return nil
	}
	mgr := m.manager(page)
	if mgr == m.id {
		if err := m.sequenceUpdate(p, page, offset, data, m.id, m.arch.Kind); err != nil {
			return err
		}
	} else {
		m.stats.UpdateWrites++
		if _, err := m.ep.Call(p, mgr, &proto.Message{
			Kind: proto.KindUpdateWrite,
			Page: uint32(page),
			Args: []uint32{uint32(offset)},
			Data: data,
		}); err != nil {
			return m.hostFailed(err, mgr, "host %d update write page %d", m.id, page)
		}
	}
	// Sequenced: apply to the local replica (bytes are already native).
	if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		copy(lp.data[offset:], data)
	}
	return nil
}

// handleUpdateWrite sequences a remote writer's update at the manager.
// A round that failed is not acknowledged: the writer's call fails.
func (m *updateEngine) handleUpdateWrite(p *sim.Proc, req *proto.Message) {
	page := PageNo(req.Page)
	if m.manager(page) != m.id {
		bufpool.Put(req.TakeWire())
		return // misdirected; the writer times out
	}
	err := m.sequenceUpdate(p, page, int(req.Arg(0)), req.Data, HostID(req.From), arch.Kind(req.SrcArch))
	// Sequenced and pushed everywhere, or given up: the request's wire
	// buffer (which Data aliases) is spent.
	bufpool.Put(req.TakeWire())
	if err == nil {
		m.ep.Reply(p, req, &proto.Message{Kind: proto.KindUpdateWriteAck, Page: req.Page})
	}
}

// sequenceUpdate distributes one update to every replica holder, in
// per-page total order (the manager's page lock), with one copyset
// round. The writer applies its own update when the manager
// acknowledges, unless sequencing took so long that its call may have
// given up first: then a second round pushes the update to the writer.
func (m *updateEngine) sequenceUpdate(p *sim.Proc, page PageNo, offset int, data []byte, writer HostID, writerKind arch.Kind) error {
	arrived := p.Now()
	ent := m.mgrEntryFor(page)
	ent.lock.P(p)
	// Deferred before the lock release so it runs after it (LIFO): the
	// checker audits the state each sequenced update leaves behind.
	defer m.checkpoint("update-sequenced", page)
	defer ent.lock.V()
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.ManagerProcess.Of(m.arch.Kind)))
	ent.copyset[writer] = struct{}{}

	targets := slices.DeleteFunc(sim.SortedKeys(ent.copyset), func(h HostID) bool {
		return h == writer || h == m.id
	})
	if ent.owner != writer && ent.owner != m.id {
		if _, in := ent.copyset[ent.owner]; !in {
			targets = append(targets, ent.owner)
			slices.Sort(targets) // the owner takes its place in host order
		}
	}

	// Apply at the manager's own replica (converting from the writer's
	// representation).
	if writer != m.id {
		if lp := m.local[page]; lp != nil && lp.access != NoAccess {
			m.storeRun(p, page, lp.data[offset:], data, writerKind)
		}
	} else if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		copy(lp.data[offset:], data)
	}

	push := func() *proto.Message {
		return &proto.Message{
			Kind:    proto.KindApplyUpdate,
			Page:    uint32(page),
			SrcArch: uint8(writerKind),
			Args:    []uint32{uint32(offset)},
			Data:    data,
		}
	}
	err := m.copysetRound(p, targets, &m.stats.UpdatePushes, push)
	if err == nil && writer != m.id && p.Now().Sub(arrived) > sim.Duration(m.cfg.Params.RequestTimeout) {
		// The writer has been retransmitting its call (a lock wait or a
		// round that waited out a dead target) and may have given up
		// before the acknowledgement arrives. Applying the update a
		// second time writes the same bytes, still under the page lock.
		err = m.copysetRound(p, []HostID{writer}, &m.stats.UpdatePushes, push)
	}
	if err != nil {
		return m.callFailed(err, "host %d pushing update for page %d", m.id, page)
	}
	return nil
}

// handleApplyUpdate applies a sequenced update at a replica holder.
func (m *updateEngine) handleApplyUpdate(p *sim.Proc, req *proto.Message) {
	if !m.addressed(req, 1, false) {
		bufpool.Put(req.TakeWire())
		return
	}
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.InvalidateProcess.Of(m.arch.Kind)))
	page := PageNo(req.Page)
	if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		m.storeRun(p, page, lp.data[req.Arg(0):], req.Data, arch.Kind(req.SrcArch))
		m.stats.UpdatesApplied++
		m.trace("apply-update", page)
	}
	bufpool.Put(req.TakeWire())
	m.checkpoint("update-applied", page)
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindApplyUpdateAck, Page: req.Page})
}
