package sctrace

// The release-consistency (happens-before) trace oracle. Where Check
// validates a trace against sequential consistency with the virtual
// clock as the witness order, CheckRC validates a lazy-release-
// consistency run against the ordering the synchronization actually
// established: a read must return the value of a write that is maximal
// in happens-before among the writes ordered before it, or of a write
// concurrent with it (a data race both orders of which RC admits), or
// zero when no write happens-before it at all.
//
// Happens-before is reconstructed exactly as the implementation tracks
// it: every Acquire and Release op carries the recording host's vector
// timestamp (one big-endian u32 per host) *after* the operation — a
// release after closing its interval (so vt[self] counts completed
// intervals), an acquire after merging the incoming payload. Replaying
// the trace in record order therefore rebuilds each host's VT at every
// read and write, and write W on host a happens-before operation O on
// host b iff they share a host and W was recorded first, or
// vtW[a] < vtO[a] — host b (transitively) acquired the release that
// closed W's interval.
//
// The oracle is deliberately no stricter than the protocol's legal
// behaviors: a concurrent write's value is admissible because an
// acquirer may pull diff-log entries (or fetch a home copy) that carry
// intervals it has not synchronized with — applying "extra" updates
// early is allowed under RC, reading stale data *across* an acquire is
// not. A lost diff or a stale twin merge surfaces as a read returning a
// value that is neither happens-before-maximal nor concurrent.

import "encoding/binary"

// DecodeVT parses a vector timestamp recorded in an Acquire/Release
// op's Data (one big-endian u32 per host).
func DecodeVT(data []byte) []uint32 {
	vt := make([]uint32, len(data)/4)
	for i := range vt {
		vt[i] = binary.BigEndian.Uint32(data[i*4:])
	}
	return vt
}

// EncodeVT renders a vector timestamp in the recorded wire form.
func EncodeVT(vt []uint32) []byte {
	out := make([]byte, 4*len(vt))
	for i, v := range vt {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// vtAt reads component h of a vector timestamp, treating missing
// components (hosts that never synchronized) as zero.
func vtAt(vt []uint32, h int) uint32 {
	if h < len(vt) {
		return vt[h]
	}
	return 0
}

// rcWrite is one write to one byte, stamped with the writer's VT at the
// moment of the write.
type rcWrite struct {
	host int
	seq  uint64
	vt   []uint32 // shared snapshot, not mutated after stamping
	val  byte
}

// hb reports whether write w happens-before an operation on host h with
// timestamp vt and sequence seq.
func (w *rcWrite) hb(host int, seq uint64, vt []uint32) bool {
	if w.host == host {
		return w.seq < seq
	}
	return vtAt(w.vt, w.host) < vtAt(vt, w.host)
}

// CheckRC validates a trace recorded under a release-consistency engine.
// It returns the violations found (nil for a consistent trace).
func CheckRC(ops []Op) []Violation {
	var violations []Violation

	// Per-host current VT, rebuilt from the recorded sync ops. A host
	// that has not synchronized yet is at the zero timestamp.
	cur := map[int][]uint32{}
	// Shared per-host stamp: writes reference it; replaced (not
	// mutated) whenever the host's VT changes, so stamps stay frozen.
	stamp := map[int][]uint32{}
	vtOf := func(h int) []uint32 {
		if s := stamp[h]; s != nil {
			return s
		}
		return []uint32{}
	}

	// Each host's recorded releases, in record order, by host.
	var releases [][][]uint32

	writes := map[uint32][]*rcWrite{}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case Acquire, Release:
			vt := DecodeVT(op.Data)
			old := cur[op.Host]
			for h := range old {
				if vtAt(vt, h) < old[h] {
					violations = append(violations, Violation{
						Op:  *op,
						Msg: "vector timestamp regressed at sync operation",
					})
					break
				}
			}
			if msg := rcSyncMalformed(op, vt, old, releases); msg != "" {
				violations = append(violations, Violation{Op: *op, Msg: msg})
			}
			if op.Kind == Release {
				for len(releases) <= op.Host {
					releases = append(releases, nil)
				}
				releases[op.Host] = append(releases[op.Host], vt)
			}
			cur[op.Host] = vt
			stamp[op.Host] = vt
		case Write:
			vt := vtOf(op.Host)
			for i, b := range op.Data {
				a := op.Addr + uint32(i)
				writes[a] = append(writes[a], &rcWrite{host: op.Host, seq: op.Seq, vt: vt, val: b})
			}
		case Read:
			vt := vtOf(op.Host)
			for i, got := range op.Data {
				a := op.Addr + uint32(i)
				if rcByteOK(writes[a], op.Host, op.Seq, vt, got) {
					continue
				}
				violations = append(violations, Violation{
					Op: *op, Addr: a, Got: got,
					Msg: "read returned a value neither happens-before-maximal nor concurrent",
				})
				break // one violation per read op keeps reports readable
			}
		default:
			violations = append(violations, Violation{Op: *op, Msg: "unknown operation kind"})
		}
	}
	return violations
}

// rcSyncMalformed checks the two timestamp rules the happens-before
// reconstruction rests on, beyond monotonicity: a release closes an
// interval, so it advances its host's own component past old's; and an
// acquire has merged every release it counts, so its timestamp covers
// the newest release of each other host whose interval it counts
// (1 ≤ vtR[a] ≤ vt[a]; earlier ones are covered by that one's
// monotonicity). The protocol's timestamps obey both. Without them a
// write could happen-before a read through the releases while its
// timestamp says the two are concurrent. It returns the violation's
// message, or "".
func rcSyncMalformed(op *Op, vt, old []uint32, releases [][][]uint32) string {
	if op.Kind == Release {
		if vtAt(vt, op.Host) <= vtAt(old, op.Host) {
			return "release did not advance its host's interval count"
		}
		return ""
	}
	for a, rels := range releases {
		if a == op.Host {
			continue
		}
		for k := len(rels) - 1; k >= 0; k-- {
			own := vtAt(rels[k], a)
			if own < 1 || own > vtAt(vt, a) {
				continue
			}
			for h := range rels[k] {
				if vtAt(vt, h) < rels[k][h] {
					return "acquire's vector timestamp does not cover a release it counts"
				}
			}
			break
		}
	}
	return ""
}

// rcByteOK reports whether a read of one byte returning got is
// admissible: got is the value of a happens-before-maximal write, of a
// concurrent write, or zero when no write happens-before the read.
func rcByteOK(ws []*rcWrite, host int, seq uint64, vt []uint32, got byte) bool {
	anyHB := false
	for _, w := range ws {
		if w.seq >= seq {
			continue // recorded after the read: its value did not exist yet
		}
		if !w.hb(host, seq, vt) {
			// Concurrent with the read (the read cannot happen-before a
			// write recorded earlier): either race outcome is admissible.
			if w.val == got {
				return true
			}
			continue
		}
		anyHB = true
		// Happens-before the read: admissible only if maximal — no
		// other HB write overwrites it on the way to this read.
		if w.val != got {
			continue
		}
		dominated := false
		for _, w2 := range ws {
			if w2 == w || w2.seq >= seq || !w2.hb(host, seq, vt) {
				continue
			}
			if w.hb(w2.host, w2.seq, w2.vt) {
				dominated = true
				break
			}
		}
		if !dominated {
			return true
		}
	}
	return !anyHB && got == 0
}
