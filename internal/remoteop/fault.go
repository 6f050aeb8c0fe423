package remoteop

// Fault-tolerance support: fragment checksums (so in-flight corruption
// is detected, never silently installed), payload hooks for the
// network's duplicate/corrupt faults, crash-stop endpoint state, and
// the peer-death fail-fast that turns "retry forever at a dead host"
// into a typed error the DSM layer can act on.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ErrPeerDead is returned by calls addressed to a host the failure
// detector has declared dead. Unlike ErrTimeout it is immediate: no
// retransmissions are spent on a peer known to have crashed.
var ErrPeerDead = errors.New("remoteop: peer host is down")

// castagnoli is the CRC-32C table; the stdlib computes that polynomial
// with the CPU's CRC instructions where it has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C guarding each fragment's wire bytes. The
// sender stamps it at fragmentation time; the receiver verifies before
// reassembly, so a corrupted fragment is dropped (and retransmitted by
// the sender's timeout machinery) instead of being installed. A CRC
// detects every error burst of up to 32 bits, so no single corrupted
// byte slips through.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// cloneFragment deep-copies a fragment for an extra (duplicate) or
// altered (corrupt) delivery. The copy owns GC-managed memory only: it
// must not share the original's pooled chunk or refcounted encode
// buffer, or a double delivery would double-release them. The
// original's own buffer share is unaffected either way.
func cloneFragment(payload any) any {
	fr, ok := payload.(*fragment)
	if !ok {
		return payload
	}
	dup := &fragment{
		srcHost: fr.srcHost,
		srcKind: fr.srcKind,
		msgID:   fr.msgID,
		idx:     fr.idx,
		total:   fr.total,
		bulk:    fr.bulk,
		sum:     fr.sum,
		owner:   nil,
		pooled:  false,
	}
	dup.chunk = append([]byte(nil), fr.chunk...)
	return dup
}

// corruptFragment returns a copy of the fragment with one wire byte
// damaged. The frame that carried the original is considered the
// damaged one, so the original's pooled resources fall to the garbage
// collector exactly as a lost frame's would — safe by construction.
func corruptFragment(payload any, r *rand.Rand) any {
	dup, ok := cloneFragment(payload).(*fragment)
	if !ok {
		return payload
	}
	if len(dup.chunk) > 0 {
		dup.chunk[r.Intn(len(dup.chunk))] ^= 0xA5
	}
	return dup
}

// registerFaultHooks points the network's duplicate/corrupt faults at
// this package's payload-aware hooks. Idempotent; every endpoint
// registers at creation so a fault plan can be installed at any time.
func registerFaultHooks(n *netsim.Network) {
	n.SetPayloadHooks(cloneFragment, corruptFragment)
}

// SetPeerCheck installs the failure detector's liveness predicate:
// dead(h) true means h has been declared crashed. Calls addressed to a
// dead host fail fast with ErrPeerDead instead of burning retries.
func (e *Endpoint) SetPeerCheck(dead func(h HostID) bool) { e.peerDead = dead }

// SetTimeoutHook installs the failure detector's escalation callback,
// invoked with the destination host each time a call exhausts a full
// request timeout without an answer. Repeated escalations are how a
// silent host becomes a suspect even between heartbeats.
func (e *Endpoint) SetTimeoutHook(f func(dst HostID)) { e.onTimeout = f }

// dead reports whether the detector has declared h dead.
func (e *Endpoint) dead(h HostID) bool { return e.peerDead != nil && e.peerDead(h) }

// escalate reports a timed-out destination to the failure detector.
func (e *Endpoint) escalate(dst HostID) {
	if e.onTimeout != nil && dst != Broadcast {
		e.onTimeout(dst)
	}
}

// exitIfCrashed unwinds the calling process if this endpoint's host has
// crashed: a dead machine's threads simply cease at their next
// interaction with the network stack.
func (e *Endpoint) exitIfCrashed(p *sim.Proc) {
	if e.crashed {
		p.Exit()
	}
}

// Crashed reports whether Crash has been called. It is the host's one
// crash flag: the DSM module, the sync service and the failure detector
// read it rather than keeping their own.
func (e *Endpoint) Crashed() bool { return e.crashed }

// Crash marks the endpoint's host as crashed and discards its partial
// reassembly state, returning the pooled buffers. Processes of the
// crashed host unwind at their next call through this endpoint; the
// server stays armed forever on its silent interface (the NIC is down,
// so nothing arrives). A bulk message already reassembled is still
// delivered when its receive cost has run, to handlers that unwind the
// same way.
func (e *Endpoint) Crash() {
	e.crashed = true
	for key := range e.reasm { // vet:ignore map-order — struct keys have no order to sort by; dropPartial only frees pooled buffers and table entries, which the simulation never observes
		e.dropPartial(key)
	}
}

// DropPartials discards partial reassemblies originating at src — a
// host declared dead mid-transfer never completes them — returning the
// pooled buffers instead of leaking them in the reassembly table.
func (e *Endpoint) DropPartials(src HostID) {
	for key := range e.reasm { // vet:ignore map-order — struct keys have no order to sort by; dropPartial only frees pooled buffers and table entries, which the simulation never observes
		if key.src == src {
			e.dropPartial(key)
		}
	}
}

// PartialReassemblies counts in-progress reassembly buffers (leak-guard
// tests assert it returns to zero after crash cleanup).
func (e *Endpoint) PartialReassemblies() int { return len(e.reasm) }

func (e *Endpoint) dropPartial(key reasmKey) {
	buf := e.reasm[key]
	if buf == nil {
		return
	}
	delete(e.reasm, key)
	bufpool.Put(buf.data)
	buf.data = nil
	reasmPool.Put(buf)
}

// peerDeadErr builds the typed fail-fast error for a dead destination.
func peerDeadErr(dst HostID) error {
	return fmt.Errorf("%w (host %d)", ErrPeerDead, dst)
}
