// Package remoteop implements Mermaid's remote operations module: a
// simple request–response protocol with forwarding and multicast
// capabilities on top of the datagram network (§2.2 of the paper).
//
// Messages larger than the MTU are fragmented and reassembled at user
// level, because (as on the Firefly's UDP) the transport provides no
// fragmentation. Requests are retransmitted on timeout; duplicate
// requests are detected and answered from a small reply cache so that
// retransmission does not re-execute handlers. Responses are correlated
// to requests by ReqID, which lets a *forwarded* request (requester →
// manager → owner) be answered by a host other than the one originally
// contacted — the owner replies straight to the requester.
//
// A request is served by a Handler, which runs on a simulated process
// of its own and may wait — on locks, on calls of its own — or by an
// EventHandler, which answers from local state and runs as a chain of
// kernel events with no process at all (event.go).
//
// Virtual-time cost accounting for bulk (page-carrying) messages lives
// here: the sender charges MsgSetup plus FragCost per fragment, and the
// receiver charges MsgSetup plus FragCost per fragment (plus
// CrossPenalty between unlike machine types) when reassembly completes.
// Control messages are free at this layer; their handling costs are
// role-specific (manager vs owner vs copyset member) and are charged by
// the DSM protocol handlers.
package remoteop

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// HostID identifies a host; it aliases the network's host identifier.
type HostID = netsim.HostID

// ErrTimeout is returned when a call exhausts its retransmissions.
var ErrTimeout = errors.New("remoteop: request timed out")

// Handler processes one inbound request. It runs on a simulated process
// of its own, spawned per request, and typically ends by calling Reply
// or Forward. A request that never needs to wait is cheaper served by
// an EventHandler.
type Handler func(p *sim.Proc, req *proto.Message)

// Stats counts protocol-level activity at one endpoint.
type Stats struct {
	// Sent counts messages sent (requests, replies, forwards).
	Sent int
	// Received counts complete messages received.
	Received int
	// FragmentsSent and FragmentsReceived count link fragments.
	FragmentsSent     int
	FragmentsReceived int
	// Retransmits counts request retransmissions.
	Retransmits int
	// Duplicates counts duplicate requests absorbed by the reply cache.
	Duplicates int
	// BulkBytes counts page payload bytes sent.
	BulkBytes int
	// ChecksumDrops counts fragments discarded because their checksum
	// did not match — corruption detected in flight.
	ChecksumDrops int
	// Unhandled counts requests dropped on arrival because no handler is
	// registered for their kind here (the requester times out). Every
	// kind a configuration sends must be served in that configuration,
	// so the verification harnesses require zero.
	Unhandled int
}

// encOwner tracks a pooled encode buffer shared by a message's
// fragments: the last fragment consumed (or dropped at delivery)
// returns the buffer to the pool. Frames lost on the wire never
// decrement, so their buffers simply fall to the garbage collector — a
// pool miss, never a reuse-while-referenced.
type encOwner struct {
	buf       []byte
	remaining atomic.Int32
}

func (o *encOwner) release() {
	if o == nil {
		return
	}
	if o.remaining.Add(-1) == 0 {
		bufpool.Put(o.buf)
		o.buf = nil
		ownerPool.Put(o)
	}
}

var ownerPool = sync.Pool{New: func() any { return new(encOwner) }}

// fragment is the link-layer payload: one piece of an encoded message.
// Unicast fragments are pooled (the receiver recycles them); broadcast
// fragments are shared by every receiver and are left to the garbage
// collector.
type fragment struct {
	srcHost HostID
	srcKind arch.Kind
	msgID   uint64
	idx     int
	total   int
	bulk    bool
	chunk   []byte
	// sum is the CRC-32C checksum of chunk, stamped at send time and
	// verified on receive, so in-flight corruption is detected.
	sum    uint32
	owner  *encOwner
	pooled bool
}

var fragPool = sync.Pool{New: func() any { return new(fragment) }}

// releaseFrag recycles a consumed fragment: the chunk's encode buffer
// refcount drops, and pooled fragments return to the fragment pool.
func releaseFrag(fr *fragment) {
	owner, pooled := fr.owner, fr.pooled
	if pooled {
		*fr = fragment{}
		fragPool.Put(fr)
	}
	owner.release()
}

type reasmKey struct {
	src   HostID
	msgID uint64
}

type reasmBuf struct {
	data    []byte
	seen    []bool
	have    int
	bytes   int
	bulk    bool
	srcKind arch.Kind
}

var reasmPool = sync.Pool{New: func() any { return new(reasmBuf) }}

type dedupKey struct {
	from  uint32
	reqID uint32
}

type dedupEntry struct {
	done bool
	// sum fingerprints the reply's first send (see send) once sent is
	// set: a resend from the cache must reproduce it.
	sent  bool
	sum   uint32
	reply *proto.Message
	to    HostID
}

type pendingCall struct {
	reply *proto.Message
	// want is set for multicast calls, indexed by host: true while that
	// target's acknowledgement is outstanding; missing counts the trues.
	want    []bool
	missing int
	w       sim.Waiter
	armed   bool
}

// done reports whether the call has everything it is waiting for.
func (pc *pendingCall) done() bool {
	if pc.want != nil {
		return pc.missing == 0
	}
	return pc.reply != nil
}

// Endpoint is one host's remote-operation engine. Create it with New,
// register handlers, then Start its server.
type Endpoint struct {
	k       *sim.Kernel
	id      HostID
	kind    arch.Kind
	ifc     *netsim.Interface
	params  *model.Params
	handler [proto.NumKinds]service
	// names and resendName cache what dispatch calls the work it starts
	// ("handler-<host>-<kind>", "resend-<host>"), each formatted at first
	// use: dispatch runs per message, and names per registered kind up
	// front would cost a small cluster's set-up more than its whole run
	// saves. The strings are part of recorded schedules — they label the
	// handler's events at model-checker choice points.
	names      map[proto.Kind]kindNames
	resendName string

	pending map[uint32]*pendingCall
	nextReq uint32
	nextMsg uint64
	reasm   map[reasmKey]*reasmBuf
	dedup   map[dedupKey]dedupEntry
	// dedupQ lists the cached keys oldest first from dedupHead: it grows
	// to dedupCap and is a ring from then on.
	dedupQ    []dedupKey
	dedupHead int
	stats     Stats
	// kindSent counts messages sent by protocol kind — the per-scheme
	// message-count comparison of the paper's §3.1 needs the breakdown,
	// not just the total.
	kindSent [proto.NumKinds]int
	started  bool
	// bulkMsg is the reassembled bulk message whose receive cost is
	// being charged, held for the bulkTimer event (see pump).
	bulkMsg   *reasmBuf
	bulkTimer string

	// peerDead is the failure detector's liveness predicate; onTimeout
	// its escalation callback; crashed marks this endpoint's own host as
	// failed (see fault.go).
	peerDead  func(h HostID) bool
	onTimeout func(dst HostID)
	crashed   bool
}

// dedupCap bounds the duplicate-detection cache per endpoint.
const dedupCap = 2048

// New creates an endpoint for a host of the given machine kind attached
// to the network through ifc.
func New(k *sim.Kernel, ifc *netsim.Interface, kind arch.Kind, params *model.Params) *Endpoint {
	registerFaultHooks(ifc.Network())
	return &Endpoint{
		k:       k,
		id:      ifc.ID(),
		kind:    kind,
		ifc:     ifc,
		params:  params,
		names:   make(map[proto.Kind]kindNames),
		pending: make(map[uint32]*pendingCall),
		reasm:   make(map[reasmKey]*reasmBuf),
		dedup:   make(map[dedupKey]dedupEntry),
	}
}

// ID returns the endpoint's host ID.
func (e *Endpoint) ID() HostID { return e.id }

// Kind returns the endpoint's machine kind.
func (e *Endpoint) Kind() arch.Kind { return e.kind }

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Handle registers the handler for a request kind, replacing whatever
// Handle or HandleEvent registered for it before. It must be called
// before Start. A reply kind completes the pending call its ReqID names
// and never reaches a handler, KindInvalid is never sent, and the
// protocol defines no kind from proto.NumKinds on, so a handler for any
// of them would be dead code: registering one panics.
func (e *Endpoint) Handle(kind proto.Kind, h Handler) {
	e.register(kind, service{proc: h})
}

// service is what serves one request kind: a Handler or an EventHandler.
type service struct {
	proc Handler
	ev   EventHandler
}

func (e *Endpoint) register(kind proto.Kind, s service) {
	if kind == proto.KindInvalid || kind >= proto.NumKinds || kind.IsReply() {
		panic(fmt.Sprintf("remoteop: Handle(%v): not a request kind", kind))
	}
	e.handler[kind] = s
	delete(e.names, kind)
}

// kindNames are the names of one request kind's handler: the process a
// Handler runs on, or the labels of an EventHandler's events — the
// labels that process's wakes would carry.
type kindNames struct {
	proc, wake, timer string
}

// namesOf formats a kind's handler names at the kind's first request,
// one string either way: an event handler's two labels are halves of
// one, so that a kind costs every tiny model-checker cluster no more
// than it did as a process name.
func (e *Endpoint) namesOf(kind proto.Kind, event bool) kindNames {
	n, ok := e.names[kind]
	if !ok {
		if event {
			both := fmt.Sprintf("wake:handler-%d-%stimer:handler-%[1]d-%[2]s", e.id, kind)
			half := len("wake:") + (len(both)-len("wake:timer:"))/2
			n = kindNames{wake: both[:half], timer: both[half:]}
		} else {
			n = kindNames{proc: fmt.Sprintf("handler-%d-%s", e.id, kind)}
		}
		e.names[kind] = n
	}
	return n
}

// Start arms the endpoint's server: from here on arriving fragments are
// reassembled into messages that complete pending calls or are
// dispatched to handlers. The server is a state machine driven by two
// events, not a process — Mermaid served its network from signal
// handlers, interrupt-style (PAPER.md) — so an idle host costs no
// coroutine. The events carry the labels the wakes of a process named
// net-server-<host> would: recorded schedules name them.
func (e *Endpoint) Start() {
	if e.started {
		return
	}
	e.started = true
	server := fmt.Sprintf("net-server-%d", e.id)
	e.bulkTimer = "timer:" + server
	wake, pump := "wake:"+server, e.pump
	e.ifc.OnFrames(wake, pump)
	e.k.AfterNamed(wake, 0, pump)
}

// pump drains the interface queue and arms it when it is empty. A
// completed bulk message suspends the drain for its receive cost:
// bulkDone delivers it and pumps again.
func (e *Endpoint) pump() {
	for {
		frame, ok := e.ifc.TryRecv()
		if !ok {
			e.ifc.Arm()
			return
		}
		frag, ok := frame.Payload.(*fragment)
		if !ok {
			continue // alien frame on the wire
		}
		e.stats.FragmentsReceived++
		if checksum(frag.chunk) != frag.sum {
			// Corrupted in flight: drop it here, before reassembly, and
			// let the sender's retransmission recover. Without this
			// check the damage would be installed as page content.
			e.stats.ChecksumDrops++
			releaseFrag(frag)
			continue
		}
		rb := e.reassemble(frag)
		total, bulk, srcKind := frag.total, frag.bulk, frag.srcKind
		// The chunk has been copied out (or dropped); recycle the
		// fragment and its share of the sender's encode buffer.
		releaseFrag(frag)
		if rb == nil {
			continue
		}
		// Bulk receive processing: reassembly and page copy, plus the
		// cross-type penalty (§2.2; fitted to Table 2).
		var cost sim.Duration
		if bulk {
			cost = e.params.MsgSetup.Of(e.kind) +
				sim.Duration(total)*e.params.FragCost.Of(e.kind)
			if srcKind != e.kind {
				cost += e.params.CrossPenalty
			}
		}
		if cost > 0 {
			// One bulk receive at a time, so the endpoint itself is the
			// timer's record: nothing to allocate per message.
			e.bulkMsg = rb
			e.k.AfterNamedArg(e.bulkTimer, cost, bulkDone, e)
			return
		}
		e.deliver(rb)
	}
}

func bulkDone(a any) {
	e := a.(*Endpoint)
	rb := e.bulkMsg
	e.bulkMsg = nil
	e.deliver(rb)
	e.pump()
}

// deliver decodes the message rb reassembled and dispatches it. The
// message takes rb's buffer as its wire when its Data aliases it;
// otherwise the buffer goes back to the pool right away. rb itself goes
// back to its own pool either way.
func (e *Endpoint) deliver(rb *reasmBuf) {
	m := &proto.Message{}
	err := proto.DecodeBorrowInto(m, rb.data[:rb.bytes])
	if err == nil && len(m.Data) > 0 {
		m.SetWire(rb.data[:rb.bytes])
	} else {
		// A corrupt message (the sender will retransmit), or nothing
		// aliases the wire buffer once the header and args are parsed.
		bufpool.Put(rb.data)
	}
	rb.data = nil
	reasmPool.Put(rb)
	if err != nil {
		return
	}
	e.stats.Received++
	e.dispatch(m)
}

// reassemble copies the fragment's chunk into a pooled, receiver-owned
// buffer and returns the reassembly once the message is complete; nil
// before that and for a duplicate or inconsistent fragment (partial
// assemblies stay in the reasm table). The buffer lives in the
// reassembly's data field from its Get until deliver hands it on. The
// caller releases the fragment afterwards in every path.
func (e *Endpoint) reassemble(frag *fragment) *reasmBuf {
	if frag.total == 1 {
		rb := reasmPool.Get().(*reasmBuf)
		rb.data = bufpool.Get(len(frag.chunk))
		rb.bytes = copy(rb.data, frag.chunk)
		return rb
	}
	key := reasmKey{src: frag.srcHost, msgID: frag.msgID}
	buf := e.reasm[key]
	if buf == nil {
		buf = reasmPool.Get().(*reasmBuf)
		buf.data = bufpool.Get(frag.total * e.params.MTUPayload)
		if cap(buf.seen) >= frag.total {
			buf.seen = buf.seen[:frag.total]
			for i := range buf.seen {
				buf.seen[i] = false
			}
		} else {
			buf.seen = make([]bool, frag.total)
		}
		buf.have, buf.bytes = 0, 0
		buf.bulk, buf.srcKind = frag.bulk, frag.srcKind
		e.reasm[key] = buf
	}
	off := frag.idx * e.params.MTUPayload
	if frag.idx >= len(buf.seen) || buf.seen[frag.idx] || off+len(frag.chunk) > len(buf.data) {
		return nil // duplicate or inconsistent fragment
	}
	buf.seen[frag.idx] = true
	copy(buf.data[off:], frag.chunk)
	buf.have++
	buf.bytes += len(frag.chunk)
	if buf.have < len(buf.seen) {
		return nil
	}
	delete(e.reasm, key)
	return buf
}

func (e *Endpoint) dispatch(m *proto.Message) {
	if m.Kind.IsReply() {
		pc := e.pending[m.ReqID]
		if pc == nil {
			bufpool.Put(m.TakeWire())
			return // stale reply
		}
		if pc.want != nil {
			// A multicast reads no ack's contents, only who sent it.
			bufpool.Put(m.TakeWire())
			from := int(m.From)
			if from >= len(pc.want) || !pc.want[from] {
				return // ack from a bystander, or a duplicate
			}
			pc.want[from] = false
			pc.missing--
			if pc.done() && pc.armed {
				pc.armed = false
				e.k.Wake(pc.w, sim.WakeSignal)
			}
			return
		}
		if pc.reply != nil {
			bufpool.Put(m.TakeWire())
			return // duplicate reply
		}
		pc.reply = m
		if pc.armed {
			pc.armed = false
			e.k.Wake(pc.w, sim.WakeSignal)
		}
		return
	}
	key := dedupKey{from: m.From, reqID: m.ReqID}
	if ent, seen := e.dedup[key]; seen {
		e.stats.Duplicates++
		bufpool.Put(m.TakeWire())
		if ent.done && ent.reply != nil {
			// Answer the retransmission from the reply cache. The cached
			// body may alias state its handler owns (a quorum replica),
			// so the resend must prove it is the bytes first sent.
			if e.resendName == "" {
				e.resendName = fmt.Sprintf("resend-%d", e.id)
			}
			e.k.Spawn(e.resendName, func(p *sim.Proc) {
				if sum := e.send(p, ent.to, ent.reply); ent.sent && sum != ent.sum {
					panic(fmt.Sprintf("remoteop: cached %v reply to host %d changed after it was sent", ent.reply.Kind, ent.to))
				}
			})
		}
		return // in progress: the original execution will answer
	}
	e.remember(key)
	var s service
	if m.Kind < proto.NumKinds {
		s = e.handler[m.Kind]
	}
	switch {
	case s.ev.Reply != nil:
		e.serve(s.ev, m)
	case s.proc != nil:
		e.k.Spawn(e.namesOf(m.Kind, false).proc, func(p *sim.Proc) {
			s.proc(p, m)
		})
	default:
		// No handler: the request vanishes and the requester times out.
		e.stats.Unhandled++
		bufpool.Put(m.TakeWire())
	}
}

// remember opens the duplicate-cache entry of a request in progress,
// evicting the oldest entry of a full cache.
func (e *Endpoint) remember(key dedupKey) {
	if len(e.dedupQ) < dedupCap {
		e.dedupQ = append(e.dedupQ, key)
	} else {
		delete(e.dedup, e.dedupQ[e.dedupHead])
		e.dedupQ[e.dedupHead] = key
		e.dedupHead = (e.dedupHead + 1) % dedupCap
	}
	e.dedup[key] = dedupEntry{}
}

// send encodes and transmits m to dst, fragmenting as needed and
// charging bulk costs. It blocks for the sender-side virtual time and
// returns the XOR of the fragments' checksums — a fingerprint of the
// bytes sent, at no extra cost. An exchange (event.go) sends the same
// way with events for the waits; encode, frame and finish are shared.
func (e *Endpoint) send(p *sim.Proc, dst HostID, m *proto.Message) uint32 {
	e.exitIfCrashed(p)
	o := e.encode(dst, m)
	if o.bulk {
		p.Sleep(e.params.MsgSetup.Of(e.kind))
		e.stats.BulkBytes += len(m.Data)
	}
	for idx := 0; idx < o.total; idx++ {
		if o.bulk {
			p.Sleep(e.params.FragCost.Of(e.kind))
		}
		if err := e.ifc.Send(p, e.frame(&o, idx)); err != nil {
			panic(fmt.Sprintf("remoteop: send: %v", err))
		}
		e.stats.FragmentsSent++
	}
	e.finish(m)
	return o.sum
}

// outgoing is one message being sent: its encoding, cut into fragments
// by frame, and the checksum fingerprint of the fragments framed so far.
type outgoing struct {
	dst   HostID
	buf   []byte
	owner *encOwner
	msgID uint64
	total int
	bulk  bool
	sum   uint32
}

// encode encodes m for dst.
//
// Unicast encodes into a pooled buffer shared by the fragments through
// a refcounted owner; each receiver-side release decrements it, and the
// last returns the buffer (fragments lost on the wire never decrement,
// so their buffers fall to the garbage collector instead — always
// safe). A broadcast frame is delivered to every host at once, so its
// single fragment and buffer cannot be refcounted per receiver — they
// stay unpooled and fall to the garbage collector.
func (e *Endpoint) encode(dst HostID, m *proto.Message) outgoing {
	if m.SrcArch == 0 {
		m.SrcArch = uint8(e.kind)
	}
	o := outgoing{dst: dst}
	var err error
	if dst == Broadcast {
		o.buf, err = m.Encode() // vet:ignore hot-alloc — broadcast fragments share one GC-owned buffer
	} else {
		// The owner takes the encode buffer straight from the pool;
		// the refcount is armed below once the fragment count is known.
		o.owner = ownerPool.Get().(*encOwner)
		o.owner.buf, err = m.AppendEncode(bufpool.Get(m.EncodedSize())[:0])
		o.buf = o.owner.buf
	}
	if err != nil {
		// Encoding errors are programming errors in protocol code.
		panic(fmt.Sprintf("remoteop: encode %v: %v", m.Kind, err))
	}
	o.bulk = len(m.Data) > 0
	o.total = e.params.Fragments(len(o.buf))
	if o.owner != nil {
		o.owner.remaining.Store(int32(o.total))
	}
	e.nextMsg++
	o.msgID = e.nextMsg
	return o
}

// frame cuts fragment idx of o into a frame, folding its checksum into
// o's fingerprint.
func (e *Endpoint) frame(o *outgoing, idx int) netsim.Frame {
	lo := idx * e.params.MTUPayload
	hi := min(lo+e.params.MTUPayload, len(o.buf))
	broadcast := o.dst == Broadcast
	var fr *fragment
	chunkSum := checksum(o.buf[lo:hi])
	o.sum ^= chunkSum
	if broadcast {
		fr = &fragment{}
	} else {
		fr = fragPool.Get().(*fragment)
	}
	*fr = fragment{
		srcHost: e.id,
		srcKind: e.kind,
		msgID:   o.msgID,
		idx:     idx,
		total:   o.total,
		bulk:    o.bulk,
		chunk:   o.buf[lo:hi],
		sum:     chunkSum,
		owner:   o.owner,
		pooled:  !broadcast,
	}
	return netsim.Frame{From: e.id, To: o.dst, Size: hi - lo, Payload: fr}
}

// finish counts a message whose last fragment has left. Every counter
// moves when the process that sends would move it — page bytes after
// MsgSetup, a fragment after its wire time — so a run stopped in the
// middle of a send reads the same Stats either way.
func (e *Endpoint) finish(m *proto.Message) {
	e.stats.Sent++
	if m.Kind < proto.NumKinds {
		e.kindSent[m.Kind]++
	}
}

// MessageCounts returns the per-kind sent-message counters, indexed by
// kind.
func (e *Endpoint) MessageCounts() [proto.NumKinds]int { return e.kindSent }

// Call sends a request to dst and blocks until the matching reply
// arrives (possibly from a different host, if the request was
// forwarded), retransmitting on timeout. The request's ReqID and From
// are assigned here.
func (e *Endpoint) Call(p *sim.Proc, dst HostID, m *proto.Message) (*proto.Message, error) {
	return e.call(p, dst, m, e.params.RequestTimeout, e.params.MaxRetries)
}

// CallBlocking is Call for operations that may legitimately wait a long
// time for their reply (P on a held semaphore, event waits, barrier
// arrivals): it retries indefinitely, retransmitting every
// BlockingRetryInterval, and only fails when the failure detector
// declares the destination dead — waiting forever on a crashed
// semaphore manager would wedge the caller permanently. Duplicate-
// request absorption at the receiver makes the retransmissions
// harmless.
func (e *Endpoint) CallBlocking(p *sim.Proc, dst HostID, m *proto.Message) (*proto.Message, error) {
	return e.call(p, dst, m, e.params.BlockingRetryInterval(), -1)
}

// call is the unicast request loop behind Call and CallBlocking: send,
// wait one interval for the reply, retransmit. retries bounds the
// retransmissions; negative means forever, and then an expired wait is
// not reported to the failure detector either — for those callers a
// long silence is the expected case, not a symptom.
func (e *Endpoint) call(p *sim.Proc, dst HostID, m *proto.Message, interval sim.Duration, retries int) (*proto.Message, error) {
	e.nextReq++
	m.ReqID = e.nextReq
	m.From = uint32(e.id)
	pc := &pendingCall{}
	e.pending[m.ReqID] = pc
	defer delete(e.pending, m.ReqID)

	for try := 0; retries < 0 || try <= retries; try++ {
		if e.dead(dst) {
			// The detector declared the peer dead (possibly mid-call):
			// fail fast instead of spending retransmissions on it.
			return nil, peerDeadErr(dst)
		}
		if try > 0 {
			e.stats.Retransmits++
		}
		e.send(p, dst, m)
		if pc.reply != nil {
			return pc.reply, nil
		}
		pc.w = p.PrepareWait()
		pc.armed = true
		p.ParkTimeout(interval)
		pc.armed = false
		if pc.reply != nil {
			return pc.reply, nil
		}
		if retries >= 0 {
			e.escalate(dst)
		}
	}
	if e.dead(dst) {
		return nil, peerDeadErr(dst)
	}
	return nil, fmt.Errorf("%w (kind %v to host %d)", ErrTimeout, m.Kind, dst)
}

// SendOneWay transmits a message without expecting any response — used
// by notifications and by calibration harnesses that time a bare
// transfer. The caller blocks for the sender-side virtual time only.
func (e *Endpoint) SendOneWay(p *sim.Proc, dst HostID, m *proto.Message) {
	e.nextReq++
	m.ReqID = e.nextReq
	m.From = uint32(e.id)
	e.send(p, dst, m)
}

// Redeem completes a pending call made from this endpoint with the
// given message, as if it were the call's reply. It lets a payload that
// arrives as an independent (reliable, acked) request — such as a page
// delivery forwarded through a manager — satisfy the original call. It
// reports whether a pending call was completed (false for duplicates or
// stale deliveries).
func (e *Endpoint) Redeem(reqID uint32, m *proto.Message) bool {
	pc := e.pending[reqID]
	if pc == nil || pc.reply != nil {
		return false
	}
	pc.reply = m
	if pc.armed {
		pc.armed = false
		e.k.Wake(pc.w, sim.WakeSignal)
	}
	return true
}

// Reply sends resp as the answer to req, directly to the original
// requester, and caches it for duplicate absorption. The response
// carries this endpoint as its From so multicast callers can attribute
// acknowledgements.
func (e *Endpoint) Reply(p *sim.Proc, req *proto.Message, resp *proto.Message) {
	key := e.cacheReply(req, resp)
	e.replySent(key, resp, e.send(p, HostID(req.From), resp))
}

// cacheReply addresses resp as the answer to req and makes it the reply
// cache's answer to req's retransmissions; the key finds the entry for
// replySent.
func (e *Endpoint) cacheReply(req, resp *proto.Message) dedupKey {
	resp.ReqID = req.ReqID
	resp.From = uint32(e.id)
	key := dedupKey{from: req.From, reqID: req.ReqID}
	if _, ok := e.dedup[key]; ok {
		e.dedup[key] = dedupEntry{done: true, reply: resp, to: HostID(req.From)}
	}
	return key
}

// replySent records the fingerprint of resp's first send, which every
// resend from the cache must reproduce.
func (e *Endpoint) replySent(key dedupKey, resp *proto.Message, sum uint32) {
	if ent, ok := e.dedup[key]; ok && ent.reply == resp {
		ent.sum, ent.sent = sum, true
		e.dedup[key] = ent
	}
}

// Forward passes req on to dst unchanged (same ReqID and original From),
// so dst can reply directly to the requester — the protocol's forwarding
// capability used for the manager → owner hop.
func (e *Endpoint) Forward(p *sim.Proc, dst HostID, req *proto.Message) {
	e.send(p, dst, req)
}

// CallMulticast transmits one request as a physical broadcast frame and
// blocks until every host in targets has acknowledged — the multicast
// the paper's remote operations module provides for write invalidation
// (§2.2). Hosts outside targets also receive the frame; the message's
// arguments must let their handlers recognize they are bystanders (and
// stay silent). Missing acknowledgements are recovered by re-sending
// the same request to the stragglers individually.
//
// Unlike Call and CallQuorum it does not ask the failure detector: a
// target declared dead is still sent to and waited for, so a round in
// flight outlasts a partition whose victim, alive and holding a copy,
// was declared dead. Failing fast on that target lets the caller send
// its round again without the victim and complete writes the victim's
// copy never sees: in the partition-availability experiment's 5 s cut,
// mrsw then completes 48 writes instead of 0 and update 50 instead of
// 0, which TestPartitionAvailability rejects. A caller that skips
// declared-dead targets does so between rounds (dsm's copysetRound).
//
// The acknowledgements carry nothing but their sender: none is kept.
func (e *Endpoint) CallMulticast(p *sim.Proc, targets []HostID, m *proto.Message) error {
	if len(targets) == 0 {
		return nil
	}
	e.nextReq++
	m.ReqID = e.nextReq
	m.From = uint32(e.id)
	pc := &pendingCall{want: make([]bool, int(slices.Max(targets))+1)}
	for _, t := range targets {
		if !pc.want[t] {
			pc.want[t] = true
			pc.missing++
		}
	}
	e.pending[m.ReqID] = pc
	defer delete(e.pending, m.ReqID)

	e.send(p, Broadcast, m)
	for try := 0; try <= e.params.MaxRetries; try++ {
		deadline := p.Now().Add(e.params.RequestTimeout)
		for !pc.done() {
			remaining := deadline.Sub(p.Now())
			if remaining <= 0 {
				break
			}
			pc.w = p.PrepareWait()
			pc.armed = true
			p.ParkTimeout(remaining)
			pc.armed = false
		}
		if pc.done() {
			return nil
		}
		// Chase the stragglers individually (their duplicate caches
		// absorb re-delivery and resend the lost acks).
		e.stats.Retransmits++
		for _, t := range targets {
			if pc.want[t] {
				e.escalate(t)
				e.send(p, t, m)
			}
		}
	}
	return fmt.Errorf("%w (multicast to %d hosts)", ErrTimeout, len(targets))
}

// Broadcast is the physical broadcast destination.
const Broadcast = netsim.Broadcast

// CallAll sends one request per destination (built by mk, which receives
// the destination) and blocks until every reply has arrived — how small
// clusters distribute page metadata, and the unicast form of the
// invalidation and update multicasts. It is the quorum round with
// need = all: lost requests are retransmitted individually, and a
// destination the failure detector has declared dead fails the round at
// once with ErrPeerDead, as Call does, instead of spending MaxRetries
// timeouts on it.
func (e *Endpoint) CallAll(p *sim.Proc, dsts []HostID, mk func(dst HostID) *proto.Message) ([]*proto.Message, error) {
	if len(dsts) == 0 {
		return nil, nil
	}
	return e.CallQuorum(p, dsts, len(dsts), mk)
}

// CallQuorum sends one request per destination (built by mk) and blocks
// until `need` replies have arrived — first-majority completion for
// quorum protocols: the caller resumes the moment any quorum answers
// instead of waiting out the slowest replica. The returned slice is
// indexed like dsts, nil for hosts that had not answered when the
// quorum completed; those stragglers' late replies are recycled by the
// stale-reply path once the pending entries are deleted here. Hosts the
// failure detector has declared dead are skipped outright (they cannot
// count toward the quorum), and the round fails fast with ErrPeerDead
// when fewer than `need` destinations remain reachable at all —
// distinct from ErrTimeout, which means enough peers are alive but a
// quorum of them is unreachable *this instant* (a partition the caller
// should ride out with its own backoff).
func (e *Endpoint) CallQuorum(p *sim.Proc, dsts []HostID, need int, mk func(dst HostID) *proto.Message) ([]*proto.Message, error) {
	if need <= 0 || need > len(dsts) {
		panic(fmt.Sprintf("remoteop: quorum of %d from %d destinations", need, len(dsts)))
	}
	msgs := make([]*proto.Message, len(dsts))
	calls := make([]*pendingCall, len(dsts))
	for i, dst := range dsts {
		if e.dead(dst) {
			continue
		}
		m := mk(dst)
		e.nextReq++
		m.ReqID = e.nextReq
		m.From = uint32(e.id)
		msgs[i] = m
		calls[i] = &pendingCall{}
		e.pending[m.ReqID] = calls[i]
	}
	defer func() {
		for _, m := range msgs {
			if m != nil {
				delete(e.pending, m.ReqID)
			}
		}
	}()

	got := func() int {
		n := 0
		for _, pc := range calls {
			if pc != nil && pc.reply != nil {
				n++
			}
		}
		return n
	}

	for try := 0; try <= e.params.MaxRetries; try++ {
		// Replies in hand plus destinations still able to answer: when
		// that falls short of the quorum, no amount of waiting helps.
		reachable := 0
		for i, dst := range dsts {
			if calls[i] == nil {
				continue
			}
			if calls[i].reply != nil || !e.dead(dst) {
				reachable++
			}
		}
		if reachable < need {
			return nil, fmt.Errorf("%w: quorum needs %d of %d hosts, only %d reachable", ErrPeerDead, need, len(dsts), reachable)
		}
		for i, dst := range dsts {
			if calls[i] == nil || calls[i].reply != nil || e.dead(dst) {
				continue
			}
			if try > 0 {
				e.stats.Retransmits++
				e.escalate(dst)
			}
			e.send(p, dst, msgs[i])
		}
		deadline := p.Now().Add(e.params.RequestTimeout)
		for got() < need {
			remaining := deadline.Sub(p.Now())
			if remaining <= 0 {
				break
			}
			w := p.PrepareWait()
			for _, pc := range calls {
				if pc != nil && pc.reply == nil {
					pc.w = w
					pc.armed = true
				}
			}
			p.ParkTimeout(remaining)
			for _, pc := range calls {
				if pc != nil {
					pc.armed = false
				}
			}
		}
		if got() >= need {
			replies := make([]*proto.Message, len(calls))
			for i, pc := range calls {
				if pc != nil {
					replies[i] = pc.reply
				}
			}
			return replies, nil
		}
	}
	return nil, fmt.Errorf("%w (quorum %d of %d hosts)", ErrTimeout, need, len(dsts))
}
