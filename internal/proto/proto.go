// Package proto defines the binary wire format of Mermaid's messages.
//
// As in the paper (§2.2), there is no general marshalling layer: page
// contents are transferred as raw, unstructured bytes (conversion is a
// higher-level, type-driven concern), and control information is a small
// fixed header plus a handful of scalar arguments. All header fields are
// network byte order (big-endian).
package proto

import (
	"encoding/binary"
	"fmt"
)

// Kind identifies a message type.
type Kind uint8

// Message kinds. Request/response pairing is by ReqID, not by kind, so
// forwarded requests can be answered by a host other than the one the
// requester contacted.
const (
	// KindInvalid is the zero Kind. It is never sent, so it is neither a
	// reply nor registered with a handler.
	KindInvalid Kind = iota
	// KindGetPage requests a page copy for reading (to manager/owner).
	KindGetPage
	// KindGetPageWrite requests a page with ownership for writing.
	KindGetPageWrite
	// KindPageReply carries the page contents (and, for writes,
	// ownership) back to the requester.
	KindPageReply
	// KindServeRequest is the manager's reliable forward to the serving
	// host: "send page P to host Args[0], redeeming its request
	// Args[1]". Acked immediately with KindServeAck.
	KindServeRequest
	// KindServeAck acknowledges receipt of a serve request.
	KindServeAck
	// KindPageDeliver carries the page body (or an upgrade grant) from
	// the serving host to the requester as a reliable call of its own;
	// Args[1] names the requester's original request to redeem.
	KindPageDeliver
	// KindPageDeliverAck acknowledges a page delivery.
	KindPageDeliverAck
	// KindInvalidate tells a copyset member to discard its copy.
	KindInvalidate
	// KindInvalidateAck acknowledges an invalidation.
	KindInvalidateAck
	// KindOwnerUpdate tells the manager the new owner of a page.
	KindOwnerUpdate
	// KindOwnerUpdateAck acknowledges an owner update.
	KindOwnerUpdateAck
	// KindThreadCreate asks a host to start an application thread.
	KindThreadCreate
	// KindThreadCreated acknowledges thread creation with its ID.
	KindThreadCreated
	// KindThreadExited notifies the creator that a thread finished.
	KindThreadExited
	// KindThreadExitedAck acknowledges the exit notification.
	KindThreadExitedAck
	// KindThreadMigrate carries a thread's state to a new host (§2.2:
	// threads may be created and later moved to other hosts).
	KindThreadMigrate
	// KindThreadMigrateAck confirms the state was installed.
	KindThreadMigrateAck
	// KindSemOp performs P or V on a distributed semaphore.
	KindSemOp
	// KindSemReply grants a P or acknowledges a V.
	KindSemReply
	// KindEventOp waits for or sets a distributed event.
	KindEventOp
	// KindEventReply unblocks an event waiter or acks a set.
	KindEventReply
	// KindBarrierOp announces arrival at a distributed barrier.
	KindBarrierOp
	// KindBarrierReply releases a barrier participant.
	KindBarrierReply
	// KindAlloc asks the allocation manager for DSM memory.
	KindAlloc
	// KindAllocReply returns the allocated address.
	KindAllocReply
	// KindPageMeta distributes a page's type and allocated length to
	// every host at allocation time.
	KindPageMeta
	// KindPageMetaAck acknowledges a page-meta update.
	KindPageMetaAck
	// KindUpdateWrite asks the page's manager to sequence and
	// distribute a write under the write-update coherence policy.
	KindUpdateWrite
	// KindUpdateWriteAck tells the writer its update is applied
	// everywhere and may be applied locally.
	KindUpdateWriteAck
	// KindApplyUpdate pushes sequenced update bytes to replica holders
	// (broadcast; the target list travels in the arguments).
	KindApplyUpdate
	// KindApplyUpdateAck confirms a pushed update.
	KindApplyUpdateAck
	// KindRemoteRead fetches bytes from a page's server without caching
	// (the central-server coherence policy).
	KindRemoteRead
	// KindRemoteReadReply carries the requested bytes, already in the
	// requester's representation.
	KindRemoteReadReply
	// KindRemoteWrite stores bytes at a page's server.
	KindRemoteWrite
	// KindRemoteWriteAck confirms a remote store. Arg 0 carries the
	// previous value for atomic swaps.
	KindRemoteWriteAck
	// KindEcho and KindEchoReply support tests and calibration.
	KindEcho
	// KindEchoReply is the response to KindEcho.
	KindEchoReply
	// KindHeartbeat is the failure detector's periodic liveness
	// broadcast (one-way, never acked; silence is the signal).
	KindHeartbeat
	// KindRecoverPage asks a surviving copyset member for its copy of a
	// page whose owner crashed. Unlike KindServeRequest it tolerates the
	// target no longer holding the copy.
	KindRecoverPage
	// KindRecoverPageReply carries the survivor's copy in its native
	// format (Args[0]=1) or reports it holds none (Args[0]=0).
	KindRecoverPageReply
	// KindDynGetPage requests a page copy for reading under the dynamic
	// distributed manager, sent to the requester's probable owner. Never
	// answered directly: the eventual owner redeems the call with a
	// KindPageDeliver.
	KindDynGetPage
	// KindDynGetPageWrite requests a page with ownership for writing
	// under the dynamic distributed manager.
	KindDynGetPageWrite
	// KindDynForward hands a dynamic-manager request one hop down the
	// probable-owner chain: "requester Args[0] wants page P (write if
	// Args[2]), redeem its request Args[1]; Args[3] hops so far". Acked
	// immediately with KindDynForwardAck so a lost hop is retransmitted.
	KindDynForward
	// KindDynForwardAck acknowledges receipt of a forwarded request.
	KindDynForwardAck
	// KindDynRecover asks a recovery coordinator to locate (or rebuild
	// from surviving copies) the owner of a page whose probable-owner
	// chain broke at a crashed host. Args[0] is the hint the requester
	// chased last.
	KindDynRecover
	// KindDynRecoverReply answers with Args[0]=1 and the live owner in
	// Args[1], or Args[0]=0 for a page whose every copy died.
	KindDynRecoverReply
	// KindDynConfirm reports a served read copy installed on the
	// requester. The dynamic owner holds the page transaction open until
	// it arrives, so the next write's invalidation round cannot race the
	// installation (the dynamic counterpart of KindOwnerUpdate).
	KindDynConfirm
	// KindDynConfirmAck acknowledges a KindDynConfirm.
	KindDynConfirmAck
	// KindQuorumRead asks a replica for its current version of page
	// Page, carrying the asker's own version: Args[0]=tag timestamp,
	// Args[1]=tag writer host. Phase 1 of an SC-ABD operation.
	KindQuorumRead
	// KindQuorumReadReply answers a KindQuorumRead with Args[0]=tag
	// timestamp, Args[1]=tag writer host, and — only when that tag
	// orders above the asker's — the page bytes in the replica's native
	// representation (SrcArch set).
	KindQuorumReadReply
	// KindQuorumWrite stores a (value, tag) version at a replica:
	// Args[0]=tag timestamp, Args[1]=tag writer host, Data the page
	// image in the sender's native representation. Used both by write
	// phase 2 and by the read write-back.
	KindQuorumWrite
	// KindQuorumWriteAck acknowledges a KindQuorumWrite.
	KindQuorumWriteAck
	// KindRCDiff pushes a release-consistency interval diff to a page's
	// home: Page the page, Args[0]=writer host, Args[1]=writer's interval
	// count after the release, Data the encoded typed diff (conv.Diff
	// wire form) in the sender's native representation.
	KindRCDiff
	// KindRCDiffAck acknowledges a KindRCDiff with Args[0] = the home
	// version the diff was logged as.
	KindRCDiffAck
	// KindRCPull asks a page's home for the diff-log suffix after
	// Args[0]=version the puller has applied.
	KindRCPull
	// KindRCPullReply answers a KindRCPull: Args[0]=home version now,
	// Args[1]=number of diff entries, Args[2]=flags (rcPullWhole when
	// the log no longer reaches back and Data is the whole page image
	// instead), Data the concatenated entries or the page image.
	KindRCPullReply
	// KindRCFetch asks a page's home for a whole-page copy at its
	// current version (the RC read/write fault path).
	KindRCFetch
	// KindRCFetchReply answers a KindRCFetch with Args[0]=home version
	// and Data the page image in the home's native representation.
	KindRCFetchReply

	// numKinds sizes the kinds table; it stays last.
	numKinds
)

// kinds is the one table of per-kind facts, keyed by constant: the wire
// name, and whether the kind is a reply — it completes the pending call
// its ReqID names instead of reaching a handler. Everything else is a
// request, served by whoever registers it with the remote-operation
// layer (which refuses a handler for a reply or for KindInvalid). A
// request shares its line with the reply that answers it; numKinds
// sizes the array, so a constant added without a row has an empty name
// and fails the package's tests.
var kinds = [numKinds]struct {
	name  string
	reply bool
}{
	KindInvalid:      {"invalid", false},
	KindGetPage:      {"get-page", false},
	KindGetPageWrite: {"get-page-write", false}, KindPageReply: {"page-reply", true},
	KindServeRequest: {"serve-request", false}, KindServeAck: {"serve-ack", true},
	KindPageDeliver: {"page-deliver", false}, KindPageDeliverAck: {"page-deliver-ack", true},
	KindInvalidate: {"invalidate", false}, KindInvalidateAck: {"invalidate-ack", true},
	KindOwnerUpdate: {"owner-update", false}, KindOwnerUpdateAck: {"owner-update-ack", true},
	KindThreadCreate: {"thread-create", false}, KindThreadCreated: {"thread-created", true},
	KindThreadExited: {"thread-exited", false}, KindThreadExitedAck: {"thread-exited-ack", true},
	KindThreadMigrate: {"thread-migrate", false}, KindThreadMigrateAck: {"thread-migrate-ack", true},
	KindSemOp: {"sem-op", false}, KindSemReply: {"sem-reply", true},
	KindEventOp: {"event-op", false}, KindEventReply: {"event-reply", true},
	KindBarrierOp: {"barrier-op", false}, KindBarrierReply: {"barrier-reply", true},
	KindAlloc: {"alloc", false}, KindAllocReply: {"alloc-reply", true},
	KindPageMeta: {"page-meta", false}, KindPageMetaAck: {"page-meta-ack", true},
	KindUpdateWrite: {"update-write", false}, KindUpdateWriteAck: {"update-write-ack", true},
	KindApplyUpdate: {"apply-update", false}, KindApplyUpdateAck: {"apply-update-ack", true},
	KindRemoteRead: {"remote-read", false}, KindRemoteReadReply: {"remote-read-reply", true},
	KindRemoteWrite: {"remote-write", false}, KindRemoteWriteAck: {"remote-write-ack", true},
	KindEcho: {"echo", false}, KindEchoReply: {"echo-reply", true},
	KindHeartbeat:   {"heartbeat", false},
	KindRecoverPage: {"recover-page", false}, KindRecoverPageReply: {"recover-page-reply", true},
	KindDynGetPage:      {"dyn-get-page", false},
	KindDynGetPageWrite: {"dyn-get-page-write", false},
	KindDynForward:      {"dyn-forward", false}, KindDynForwardAck: {"dyn-forward-ack", true},
	KindDynRecover: {"dyn-recover", false}, KindDynRecoverReply: {"dyn-recover-reply", true},
	KindDynConfirm: {"dyn-confirm", false}, KindDynConfirmAck: {"dyn-confirm-ack", true},
	KindQuorumRead: {"quorum-read", false}, KindQuorumReadReply: {"quorum-read-reply", true},
	KindQuorumWrite: {"quorum-write", false}, KindQuorumWriteAck: {"quorum-write-ack", true},
	KindRCDiff: {"rc-diff", false}, KindRCDiffAck: {"rc-diff-ack", true},
	KindRCPull: {"rc-pull", false}, KindRCPullReply: {"rc-pull-reply", true},
	KindRCFetch: {"rc-fetch", false}, KindRCFetchReply: {"rc-fetch-reply", true},
}

// String names the message kind.
func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsReply reports whether the kind is a response that should complete a
// pending call rather than be dispatched to a handler.
func (k Kind) IsReply() bool { return k < numKinds && kinds[k].reply }

// MaxArgs is the maximum number of scalar arguments per message.
const MaxArgs = 15

// headerSize is the fixed encoded header length in bytes.
const headerSize = 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4

// Message is one Mermaid protocol message.
type Message struct {
	// Kind is the message type.
	Kind Kind
	// ReqID correlates a response (or forwarded request) with the
	// original call. Assigned by the remote-operation layer.
	ReqID uint32
	// From is the *original* requester host; it survives forwarding so
	// the owner can reply directly (§2.2's forwarding capability).
	From uint32
	// Page is the DSM page number the message concerns (0 if unused).
	Page uint32
	// SrcArch is the arch.Kind of the host whose native format Data is
	// in (meaningful when Data is non-empty).
	SrcArch uint8
	// Args carries small scalar arguments whose meaning depends on Kind.
	Args []uint32
	// Data carries bulk payload — page contents — as raw bytes.
	Data []byte

	// argStore backs Args in borrow-mode decoding so parsing a message
	// never allocates an argument slice.
	argStore [MaxArgs]uint32
	// wire is the pooled buffer Data aliases after a borrow-mode decode.
	// The consumer that finishes with Data detaches it with TakeWire and
	// returns it to its pool.
	wire []byte
}

// SetWire records the underlying wire buffer that Data aliases, for
// later release via TakeWire. The message does not use it otherwise.
func (m *Message) SetWire(buf []byte) { m.wire = buf }

// TakeWire detaches and returns the recorded wire buffer (nil if none).
// After TakeWire the caller owns the buffer; Data must no longer be
// used if it aliased it.
func (m *Message) TakeWire() []byte {
	w := m.wire
	m.wire = nil
	return w
}

// EncodedSize returns the length of the encoded message in bytes.
func (m *Message) EncodedSize() int {
	return headerSize + 4*len(m.Args) + len(m.Data)
}

// Encode serializes the message into a fresh buffer. The transfer hot
// path uses AppendEncode with a pooled buffer instead.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(nil)
}

// AppendEncode serializes the message, appending to dst (which may be
// nil) and returning the extended slice. When dst has capacity for the
// encoded message — a pooled buffer sliced to zero length — no
// allocation occurs.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	if len(m.Args) > MaxArgs {
		return nil, fmt.Errorf("proto: %d args exceeds maximum %d", len(m.Args), MaxArgs)
	}
	n := m.EncodedSize()
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[len(dst) : len(dst)+n]
	dst = dst[:len(dst)+n]
	buf[0] = byte(m.Kind)
	buf[1] = m.SrcArch
	buf[2] = byte(len(m.Args))
	buf[3] = 0 // reserved
	binary.BigEndian.PutUint32(buf[4:], m.ReqID)
	binary.BigEndian.PutUint32(buf[8:], m.From)
	binary.BigEndian.PutUint32(buf[12:], m.Page)
	binary.BigEndian.PutUint32(buf[16:], uint32(len(m.Data)))
	off := headerSize
	for _, a := range m.Args {
		binary.BigEndian.PutUint32(buf[off:], a)
		off += 4
	}
	copy(buf[off:], m.Data)
	return dst, nil
}

// Decode parses an encoded message into a fresh Message with its own
// copy of Data; buf may be reused or mutated afterwards.
func Decode(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeBorrowInto(m, buf); err != nil {
		return nil, err
	}
	if len(m.Data) > 0 {
		data := make([]byte, len(m.Data))
		copy(data, m.Data)
		m.Data = data
	}
	return m, nil
}

// DecodeBorrow parses an encoded message without copying the payload:
// the returned message's Data aliases buf. The caller must not recycle
// or mutate buf while the message's Data is live.
func DecodeBorrow(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeBorrowInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeBorrowInto parses an encoded message into m without allocating:
// Args decodes into m's inline argument store and Data aliases buf. Any
// previous contents of m, including a recorded wire buffer, are
// discarded (the wire buffer is not released — detach it with TakeWire
// before reusing m).
func DecodeBorrowInto(m *Message, buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("proto: message of %d bytes shorter than header %d", len(buf), headerSize)
	}
	nargs := int(buf[2])
	if nargs > MaxArgs {
		return fmt.Errorf("proto: %d args exceeds maximum %d", nargs, MaxArgs)
	}
	dataLen := int(binary.BigEndian.Uint32(buf[16:]))
	want := headerSize + 4*nargs + dataLen
	if len(buf) != want {
		return fmt.Errorf("proto: message length %d, header implies %d", len(buf), want)
	}
	m.Kind = Kind(buf[0])
	m.SrcArch = buf[1]
	m.ReqID = binary.BigEndian.Uint32(buf[4:])
	m.From = binary.BigEndian.Uint32(buf[8:])
	m.Page = binary.BigEndian.Uint32(buf[12:])
	m.Args = nil
	m.Data = nil
	m.wire = nil
	off := headerSize
	if nargs > 0 {
		args := m.argStore[:nargs]
		for i := range args {
			args[i] = binary.BigEndian.Uint32(buf[off:])
			off += 4
		}
		m.Args = args
	}
	if dataLen > 0 {
		m.Data = buf[off : off+dataLen : off+dataLen]
	}
	return nil
}

// Arg returns Args[i], or 0 if absent — convenient for optional args.
func (m *Message) Arg(i int) uint32 {
	if i < len(m.Args) {
		return m.Args[i]
	}
	return 0
}
