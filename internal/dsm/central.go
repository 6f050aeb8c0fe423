package dsm

// The central-server coherence policy: no page ever leaves its server
// (the page's manager host). Every access is a remote read or write
// operation; the server converts data to and from the client's
// representation per request. Cheap for small, heavily write-shared
// data (no page ping-pong), expensive for bulk or read-mostly data — the
// opposite end of the algorithm spectrum from MRSW, per the authors'
// companion study cited in §2.1.

import (
	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Remote-write operation codes (Args[2] of KindRemoteWrite).
const (
	remoteOpStore = 0
	remoteOpSwap  = 1
)

// centralRead fetches length bytes at offset within a page from its
// server, in this host's representation.
func (m *centralEngine) centralRead(p *sim.Proc, page PageNo, offset, length int) ([]byte, error) {
	server := m.manager(page)
	if server == m.id {
		m.protoCPU.Use(p, m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind))
		lp := m.serverPageFor(page)
		seg := make([]byte, length) // vet:ignore hot-alloc — escapes to the caller's read callback
		copy(seg, lp.data[offset:offset+length])
		return seg, nil
	}
	m.stats.RemoteReads++
	resp, err := m.ep.Call(p, server, &proto.Message{
		Kind: proto.KindRemoteRead,
		Page: uint32(page),
		Args: []uint32{uint32(offset), uint32(length)},
	})
	if err != nil {
		return nil, m.hostFailed(err, server, "central read page %d", page)
	}
	return resp.Data, nil
}

// centralWrite stores bytes at offset within a page at its server.
func (m *centralEngine) centralWrite(p *sim.Proc, page PageNo, offset int, data []byte) error {
	server := m.manager(page)
	if server == m.id {
		m.protoCPU.Use(p, m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind))
		lp := m.serverPageFor(page)
		copy(lp.data[offset:], data)
		m.checkpoint("central-write", page)
		return nil
	}
	m.stats.RemoteWrites++
	if _, err := m.ep.Call(p, server, &proto.Message{
		Kind: proto.KindRemoteWrite,
		Page: uint32(page),
		Args: []uint32{uint32(offset), remoteOpStore},
		Data: data,
	}); err != nil {
		return m.hostFailed(err, server, "central write page %d", page)
	}
	return nil
}

// centralSwap atomically exchanges an int32 at the server.
func (m *centralEngine) centralSwap(p *sim.Proc, addr Addr, v int32) (int32, error) {
	page := m.PageOf(addr)
	offset := int(addr) - int(page)*m.cfg.PageSize
	server := m.manager(page)
	if server == m.id {
		m.protoCPU.Use(p, m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind))
		lp := m.serverPageFor(page)
		old := int32(m.arch.Order.Binary().Uint32(lp.data[offset:]))
		m.arch.Order.Binary().PutUint32(lp.data[offset:], uint32(v))
		return old, nil
	}
	m.stats.RemoteWrites++
	buf := bufpool.Get(4)
	m.arch.Order.Binary().PutUint32(buf, uint32(v))
	resp, err := m.ep.Call(p, server, &proto.Message{
		Kind: proto.KindRemoteWrite,
		Page: uint32(page),
		Args: []uint32{uint32(offset), remoteOpSwap},
		Data: buf,
	})
	bufpool.Put(buf)
	if err != nil {
		return 0, m.hostFailed(err, server, "central swap page %d", page)
	}
	return int32(resp.Arg(0)), nil
}

// serverPageFor returns the server-resident page image (servers always
// hold their pages; they are created zeroed on first touch).
func (m *centralEngine) serverPageFor(page PageNo) *localPage {
	lp := m.localPageFor(page)
	if lp.access == NoAccess {
		lp.access = WriteAccess
	}
	return lp
}

// handleRemoteRead serves a central-policy read: convert the requested
// region to the client's representation and send it.
func (m *centralEngine) handleRemoteRead(p *sim.Proc, req *proto.Message) {
	if m.manager(PageNo(req.Page)) != m.id {
		return // misdirected; client times out
	}
	m.protoCPU.Use(p, m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind))
	page := PageNo(req.Page)
	offset, length := int(req.Arg(0)), int(req.Arg(1))
	lp := m.serverPageFor(page)
	if offset < 0 || offset+length > len(lp.data) {
		return
	}
	data := freshBuf(length)
	copy(data, lp.data[offset:])
	m.convertRegion(p, page, data, m.arch, m.hosts[req.From])
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindRemoteReadReply, Page: req.Page, Data: data})
}

// handleRemoteWrite serves a central-policy store or swap. The request's
// wire buffer is recycled once its Data has been consumed (or the
// request rejected).
func (m *centralEngine) handleRemoteWrite(p *sim.Proc, req *proto.Message) {
	if m.manager(PageNo(req.Page)) != m.id {
		bufpool.Put(req.TakeWire())
		return
	}
	m.protoCPU.Use(p, m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind))
	page := PageNo(req.Page)
	offset := int(req.Arg(0))
	lp := m.serverPageFor(page)
	if offset < 0 || offset+len(req.Data) > len(lp.data) {
		bufpool.Put(req.TakeWire())
		return
	}
	if req.Arg(1) == remoteOpSwap {
		clientArch, err := arch.ByKind(arch.Kind(req.SrcArch))
		if err != nil {
			bufpool.Put(req.TakeWire())
			return
		}
		old := int32(m.arch.Order.Binary().Uint32(lp.data[offset:]))
		v := int32(clientArch.Order.Binary().Uint32(req.Data))
		m.arch.Order.Binary().PutUint32(lp.data[offset:], uint32(v))
		bufpool.Put(req.TakeWire())
		m.ep.Reply(p, req, &proto.Message{
			Kind: proto.KindRemoteWriteAck,
			Page: req.Page,
			Args: []uint32{uint32(old)},
		})
		return
	}
	m.storeRun(p, page, lp.data[offset:], req.Data, arch.Kind(req.SrcArch))
	bufpool.Put(req.TakeWire())
	m.checkpoint("central-write", page)
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindRemoteWriteAck, Page: req.Page})
}

// checkCentralPage is the central engine's declared invariant: the page
// lives only at its server and nobody caches, so any copy elsewhere is
// a protocol leak.
func checkCentralPage(c *InvariantChecker, point string, page PageNo, writers, holders []HostID) {
	c.uniqueWriter(point, page, writers)
	server := c.byID(c.mods[0].manager(page))
	for _, h := range holders {
		if server == nil || h != server.id {
			c.report(point, page, "host %d caches a copy under the central-server policy", h)
		}
	}
}
