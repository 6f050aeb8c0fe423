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
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/proto"
	"repro/internal/sim"
)

// sequenceWrite routes one span's bytes through the page's manager and
// applies them locally once sequenced.
func (m *updateEngine) sequenceWrite(p *sim.Proc, page PageNo, offset int, data []byte) {
	if m.cfg.Mutation == MutUnsequencedUpdate {
		// Injected bug: apply locally without sequencing through the
		// manager — no replica ever hears about this write.
		if lp := m.local[page]; lp != nil && lp.access != NoAccess {
			copy(lp.data[offset:], data)
		}
		return
	}
	mgr := m.manager(page)
	if mgr == m.id {
		m.sequenceUpdate(p, page, offset, data, m.id, m.arch.Kind)
	} else {
		m.stats.UpdateWrites++
		if _, err := m.ep.Call(p, mgr, &proto.Message{
			Kind: proto.KindUpdateWrite,
			Page: uint32(page),
			Args: []uint32{uint32(offset)},
			Data: data,
		}); err != nil {
			panic(fmt.Sprintf("dsm: host %d update write page %d: %v", m.id, page, err))
		}
	}
	// Sequenced: apply to the local replica (bytes are already native).
	if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		copy(lp.data[offset:], data)
	}
}

// handleUpdateWrite sequences a remote writer's update at the manager.
func (m *updateEngine) handleUpdateWrite(p *sim.Proc, req *proto.Message) {
	page := PageNo(req.Page)
	if m.manager(page) != m.id {
		bufpool.Put(req.TakeWire())
		return // misdirected; the writer times out
	}
	m.sequenceUpdate(p, page, int(req.Arg(0)), req.Data, HostID(req.From), arch.Kind(req.SrcArch))
	// Sequenced and pushed everywhere: the request's wire buffer (which
	// Data aliases) is spent.
	bufpool.Put(req.TakeWire())
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindUpdateWriteAck, Page: req.Page})
}

// sequenceUpdate distributes one update to every replica holder, in
// per-page total order (the manager's page lock).
func (m *updateEngine) sequenceUpdate(p *sim.Proc, page PageNo, offset int, data []byte, writer HostID, writerKind arch.Kind) {
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
			m.applyUpdateBytes(p, page, offset, data, writerKind)
		}
	} else if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		copy(lp.data[offset:], data)
	}

	if len(targets) == 0 {
		return
	}
	m.stats.UpdatePushes += len(targets)
	msg := func() *proto.Message {
		return &proto.Message{
			Kind:    proto.KindApplyUpdate,
			Page:    uint32(page),
			SrcArch: uint8(writerKind),
			Data:    data,
		}
	}
	var err error
	if len(targets)+1 <= proto.MaxArgs && !m.cfg.UnicastInvalidate {
		bm := msg()
		bm.Args = make([]uint32, 0, len(targets)+1)
		bm.Args = append(bm.Args, uint32(offset))
		for _, t := range targets {
			bm.Args = append(bm.Args, uint32(t))
		}
		_, err = m.ep.CallMulticast(p, targets, bm)
	} else {
		_, err = m.ep.CallAll(p, targets, func(HostID) *proto.Message {
			um := msg()
			um.Args = []uint32{uint32(offset)}
			return um
		})
	}
	if err != nil {
		panic(fmt.Sprintf("dsm: host %d pushing update for page %d: %v", m.id, page, err))
	}
}

// handleApplyUpdate applies a sequenced update at a replica holder.
func (m *updateEngine) handleApplyUpdate(p *sim.Proc, req *proto.Message) {
	if len(req.Args) > 1 { // broadcast: membership check
		member := false
		for _, a := range req.Args[1:] {
			if HostID(a) == m.id {
				member = true
				break
			}
		}
		if !member {
			bufpool.Put(req.TakeWire())
			return
		}
	}
	m.protoCPU.Use(p, m.jittered(m.cfg.Params.InvalidateProcess.Of(m.arch.Kind)))
	page := PageNo(req.Page)
	if lp := m.local[page]; lp != nil && lp.access != NoAccess {
		m.applyUpdateBytes(p, page, int(req.Arg(0)), req.Data, arch.Kind(req.SrcArch))
		m.stats.UpdatesApplied++
		m.trace("apply-update", page)
	}
	bufpool.Put(req.TakeWire())
	m.checkpoint("update-applied", page)
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindApplyUpdateAck, Page: req.Page})
}

// applyUpdateBytes converts update bytes from the writer's
// representation and stores them into the local replica.
func (m *updateEngine) applyUpdateBytes(p *sim.Proc, page PageNo, offset int, data []byte, writerKind arch.Kind) {
	buf := bufpool.Get(len(data))
	copy(buf, data)
	m.convertIn(p, page, buf, writerKind)
	copy(m.local[page].data[offset:], buf)
	bufpool.Put(buf)
}
