package dsm

import (
	"encoding/binary"
	"hash"
	"math/bits"

	"repro/internal/sim"
)

// WriteStateHash folds this host's protocol-visible state into h, in a
// canonical order: per-page access rights with the allocated prefix of
// resident page bodies, the manager table (owner, copyset, transaction
// lock state), the replicated allocation metadata, then whatever
// section the directory scheme and the engine each declared for their
// private state (emitted only under that scheme or engine, so every
// other configuration's byte stream is unchanged). The model checker
// combines the hashes of every module in a cluster (plus kernel queue
// facts) into a state fingerprint for schedule-space pruning: two
// explored prefixes that hash alike are treated as the same protocol
// state. Virtual time is deliberately excluded — schedules reaching the
// same tables and page contents at different clock readings are
// equivalent for protocol correctness.
//
// Bulk bytes — page bodies, replica images, twins — enter the stream as
// one digest64 word each, not byte by byte: a fingerprint walks every
// resident 8 KB page of every host, and h (FNV-1a in both callers)
// consumes one byte per multiply.
func (m *Module) WriteStateHash(h hash.Hash) {
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:]) // vet:ignore err-drop — hash.Hash.Write never returns an error
	}
	putBody := func(b []byte) {
		d := digest64(b)
		put(uint32(d))
		put(uint32(d >> 32))
	}
	put(uint32(m.id))
	if m.ep.Crashed() {
		// A corpse's frozen tables are all alike: one flag word stands
		// in for everything below.
		put(0xdead_dead)
		return
	}

	for _, pg := range sim.SortedKeys(m.local) {
		lp := m.local[pg]
		put(uint32(pg))
		put(uint32(lp.access))
		if lp.access != NoAccess {
			putBody(m.hashedPrefix(pg, lp.data))
		}
	}

	put(0xffff_ffff) // section separator
	for _, pg := range sim.SortedKeys(m.mgr) {
		ent := m.mgr[pg]
		put(uint32(pg))
		put(uint32(ent.owner))
		put(uint32(ent.lock.Count())) // distinguishes in-flight from quiescent
		if ent.lost {
			put(0xdead_4c57) // "LOST": a lost page is its own protocol state
		}
		if ent.suspect {
			put(0x5b5_bec7) // "SUSPECT": unconfirmed transfer awaiting reconciliation
			put(uint32(ent.suspectHost))
		}
		for _, hID := range sim.SortedKeys(ent.copyset) {
			put(uint32(hID))
		}
		put(0xffff_fffe)
	}

	put(0xffff_fffd)
	for _, pg := range sim.SortedKeys(m.meta) {
		mt := m.meta[pg]
		put(uint32(pg))
		put(uint32(mt.typeID))
		put(uint32(mt.used))
	}

	m.dir.hashState(put)
	if m.decl.hashState != nil {
		m.decl.hashState(put, putBody)
	}
}

// hashedPrefix returns the part of a page image a fingerprint covers:
// its allocated prefix, or all of it when the metadata is missing or
// (under an injected overrun) reaches past the buffer.
func (m *Module) hashedPrefix(pg PageNo, image []byte) []byte {
	if mt, ok := m.meta[pg]; ok && mt.used <= len(image) {
		return image[:mt.used]
	}
	return image
}

// The xxHash64 primes (typed, so sums wrap instead of overflowing the
// constant arithmetic).
const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

func xxRound(acc, in uint64) uint64 {
	return bits.RotateLeft64(acc+in*xxPrime2, 31) * xxPrime1
}

func xxMerge(h, lane uint64) uint64 {
	return (h^xxRound(0, lane))*xxPrime1 + xxPrime4
}

// digest64 is xxHash64 (seed 0) of b: 32-byte stripes feed four
// independent multiply-rotate lanes eight bytes each, so the CPU
// overlaps the four multiply chains where FNV-1a serializes one
// multiply per byte. It is a pure function of the bytes — no
// per-process seed — as replayable fingerprints require.
func digest64(b []byte) uint64 {
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		// Assigned in steps: the seed-0 lane constants wrap.
		v1, v2, v3, v4 := xxPrime1, xxPrime2, uint64(0), uint64(0)
		v1 += xxPrime2
		v4 -= xxPrime1
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(xxMerge(xxMerge(xxMerge(h, v1), v2), v3), v4)
	} else {
		h = xxPrime5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}
