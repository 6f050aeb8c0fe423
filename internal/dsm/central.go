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
// server, in this host's representation. A remote read's bytes alias
// the reply's wire buffer, returned as wire (nil for a local read): the
// caller puts it back in the pool once it has consumed the bytes.
func (m *centralEngine) centralRead(p *sim.Proc, page PageNo, offset, length int) (data, wire []byte, err error) {
	server := m.manager(page)
	if server == m.id {
		return m.serverRead(p, page, offset, length, m.arch), nil, nil
	}
	m.stats.RemoteReads++
	resp, err := m.ep.Call(p, server, &proto.Message{
		Kind: proto.KindRemoteRead,
		Page: uint32(page),
		Args: []uint32{uint32(offset), uint32(length)},
	})
	if err != nil {
		return nil, nil, m.hostFailed(err, server, "central read page %d", page)
	}
	return resp.Data, resp.TakeWire(), nil
}

// centralWrite stores bytes at offset within a page at its server.
func (m *centralEngine) centralWrite(p *sim.Proc, page PageNo, offset int, data []byte) error {
	server := m.manager(page)
	if server == m.id {
		m.serverStore(p, page, offset, data, m.arch.Kind)
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
		return m.serverSwap(p, page, offset, v), nil
	}
	m.stats.RemoteWrites++
	buf := bufpool.Get(4)
	defer bufpool.Put(buf)
	m.arch.Order.Binary().PutUint32(buf, uint32(v))
	resp, err := m.ep.Call(p, server, &proto.Message{
		Kind: proto.KindRemoteWrite,
		Page: uint32(page),
		Args: []uint32{uint32(offset), remoteOpSwap},
		Data: buf,
	})
	if err != nil {
		return 0, m.hostFailed(err, server, "central swap page %d", page)
	}
	return int32(resp.Arg(0)), nil
}

// serverRead, serverStore and serverSwap are the three operations at a
// page's server, for its own accesses and its clients' requests alike.
// Each charges one server operation on the page's server-resident
// frame (servers always hold their pages; they are created zeroed on
// first touch). serverRead returns a copy of length bytes at offset in
// the representation of to; serverStore stores a run of elements given
// in the representation of src; serverSwap exchanges the int32 at
// offset for v and returns the old value.
func (m *centralEngine) serverRead(p *sim.Proc, page PageNo, offset, length int, to arch.Arch) []byte {
	lp := m.serverPage(p, page)
	data := freshBuf(length)
	copy(data, lp.data[offset:])
	m.convertRegion(p, page, data, m.arch, to)
	return data
}

func (m *centralEngine) serverStore(p *sim.Proc, page PageNo, offset int, data []byte, src arch.Kind) {
	lp := m.serverPage(p, page)
	m.storeRun(p, page, lp.data[offset:], data, src)
	m.checkpoint("central-write", page)
}

func (m *centralEngine) serverSwap(p *sim.Proc, page PageNo, offset int, v int32) int32 {
	lp := m.serverPage(p, page)
	old := int32(m.arch.Order.Binary().Uint32(lp.data[offset:]))
	m.arch.Order.Binary().PutUint32(lp.data[offset:], uint32(v))
	return old
}

func (m *centralEngine) serverPage(p *sim.Proc, page PageNo) *localPage {
	m.protoCPU.Use(p, m.cfg.Params.RemoteOpProcess.Of(m.arch.Kind))
	lp := m.localPageFor(page)
	if lp.access == NoAccess {
		lp.access = WriteAccess
	}
	return lp
}

// handleRemoteRead serves a central-policy read: convert the requested
// region to the client's representation and send it.
func (m *centralEngine) handleRemoteRead(p *sim.Proc, req *proto.Message) {
	page := PageNo(req.Page)
	offset, length := int(req.Arg(0)), int(req.Arg(1))
	if m.manager(page) != m.id || offset < 0 || offset+length > m.cfg.PageSize {
		return // misdirected or malformed; the client times out
	}
	data := m.serverRead(p, page, offset, length, m.hosts[req.From])
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindRemoteReadReply, Page: req.Page, Data: data})
}

// handleRemoteWrite serves a central-policy store or swap. The request's
// wire buffer is recycled once its Data has been consumed (or the
// request rejected).
func (m *centralEngine) handleRemoteWrite(p *sim.Proc, req *proto.Message) {
	page := PageNo(req.Page)
	offset := int(req.Arg(0))
	client, err := arch.ByKind(arch.Kind(req.SrcArch))
	if m.manager(page) != m.id || offset < 0 || offset+len(req.Data) > m.cfg.PageSize || err != nil {
		bufpool.Put(req.TakeWire())
		return // misdirected or malformed; the client times out
	}
	var args []uint32
	if req.Arg(1) == remoteOpSwap {
		args = []uint32{uint32(m.serverSwap(p, page, offset, int32(client.Order.Binary().Uint32(req.Data))))}
	} else {
		m.serverStore(p, page, offset, req.Data, client.Kind)
	}
	bufpool.Put(req.TakeWire())
	m.ep.Reply(p, req, &proto.Message{Kind: proto.KindRemoteWriteAck, Page: req.Page, Args: args})
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
