package dsm

import (
	"encoding/binary"
	"hash"
	"math/bits"
	"sort"
)

// WriteStateHash folds this host's protocol-visible state into h, in a
// canonical order: per-page access rights with the allocated prefix of
// resident page bodies, the manager table (owner, copyset, transaction
// lock state), and the replicated allocation metadata. The model checker
// combines the hashes of every module in a cluster (plus kernel queue
// facts) into a state fingerprint for schedule-space pruning: two
// explored prefixes that hash alike are treated as the same protocol
// state. Virtual time is deliberately excluded — schedules reaching the
// same tables and page contents at different clock readings are
// equivalent for protocol correctness.
//
// Bulk bytes — page bodies, quorum replica images, RC twins — enter the
// stream as one digest64 word each, not byte by byte: a fingerprint
// walks every resident 8 KB page of every host, and h (FNV-1a in both
// callers) consumes one byte per multiply.
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
	if m.crashed {
		// A corpse's frozen tables are all alike: one flag word stands
		// in for everything below.
		put(0xdead_dead)
		return
	}

	pages := make([]PageNo, 0, len(m.local))
	for pg := range m.local {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		lp := m.local[pg]
		put(uint32(pg))
		put(uint32(lp.access))
		if lp.access != NoAccess {
			used := m.cfg.PageSize
			if mt, ok := m.meta[pg]; ok && mt.used <= len(lp.data) {
				used = mt.used
			}
			putBody(lp.data[:used]) // vet:ignore page-buffer — read-only fingerprint of the raw bytes
		}
	}

	put(0xffff_ffff) // section separator
	mpages := make([]PageNo, 0, len(m.mgr))
	for pg := range m.mgr {
		mpages = append(mpages, pg)
	}
	sort.Slice(mpages, func(i, j int) bool { return mpages[i] < mpages[j] })
	for _, pg := range mpages {
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
		for _, hID := range copysetList(ent) {
			put(uint32(hID))
		}
		put(0xffff_fffe)
	}

	put(0xffff_fffd)
	metas := make([]PageNo, 0, len(m.meta))
	for pg := range m.meta {
		metas = append(metas, pg)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i] < metas[j] })
	for _, pg := range metas {
		mt := m.meta[pg]
		put(uint32(pg))
		put(uint32(mt.typeID))
		put(uint32(mt.used))
	}

	if m.dyn != nil {
		put(0xffff_fffc)
		dpages := make([]PageNo, 0, len(m.dyn))
		for pg := range m.dyn {
			dpages = append(dpages, pg)
		}
		sort.Slice(dpages, func(i, j int) bool { return dpages[i] < dpages[j] })
		for _, pg := range dpages {
			dp := m.dyn[pg]
			put(uint32(pg))
			put(uint32(dp.probOwner))
			if dp.owned {
				put(1)
			} else {
				put(0)
			}
			put(uint32(dp.lock.Count())) // distinguishes in-flight from quiescent
			if dp.lost {
				put(0xdead_4c57)
			}
			for _, hID := range dynCopysetList(dp, m.id) {
				put(uint32(hID))
			}
			put(0xffff_fffe)
		}
	}

	if m.qrm != nil {
		// Quorum replicas: tag plus the allocated prefix of the image.
		// The section is emitted only under PolicyQuorum, so every other
		// policy's byte stream is unchanged.
		put(0xffff_fffb)
		qpages := make([]PageNo, 0, len(m.qrm))
		for pg := range m.qrm {
			qpages = append(qpages, pg)
		}
		sort.Slice(qpages, func(i, j int) bool { return qpages[i] < qpages[j] })
		for _, pg := range qpages {
			qp := m.qrm[pg]
			put(uint32(pg))
			put(qp.tag.ts)
			put(uint32(qp.tag.host))
			used := m.cfg.PageSize
			if mt, ok := m.meta[pg]; ok && mt.used <= len(qp.data) {
				used = mt.used
			}
			putBody(qp.data[:used]) // vet:ignore page-buffer — read-only fingerprint of the raw bytes
		}
	}

	if m.rc != nil {
		// Release-consistency state: vector timestamp, live twins,
		// applied/noticed versions, and each home's ordering state
		// (version plus the log's version/writer/shape — the diff bodies
		// are derivable from the page images already hashed). Emitted
		// only under PolicyRC, so every other policy's byte stream is
		// unchanged. Count-prefixed lists keep the stream unambiguous.
		put(0xffff_fffa)
		for _, v := range m.rc.vt {
			put(v)
		}
		hashPageMap := func(mark uint32, mp map[PageNo]uint32) {
			put(mark)
			put(uint32(len(mp)))
			keys := make([]PageNo, 0, len(mp))
			for pg := range mp {
				keys = append(keys, pg)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, pg := range keys {
				put(uint32(pg))
				put(mp[pg])
			}
		}
		hashPageMap(1, m.rc.notices)
		hashPageMap(2, m.rc.applied)
		put(3)
		put(uint32(len(m.rc.twins)))
		tpages := make([]PageNo, 0, len(m.rc.twins))
		for pg := range m.rc.twins {
			tpages = append(tpages, pg)
		}
		sort.Slice(tpages, func(i, j int) bool { return tpages[i] < tpages[j] })
		for _, pg := range tpages {
			put(uint32(pg))
			putBody(m.rc.twins[pg])
		}
		put(4)
		put(uint32(len(m.rc.home)))
		hpages := make([]PageNo, 0, len(m.rc.home))
		for pg := range m.rc.home {
			hpages = append(hpages, pg)
		}
		sort.Slice(hpages, func(i, j int) bool { return hpages[i] < hpages[j] })
		for _, pg := range hpages {
			hm := m.rc.home[pg]
			put(uint32(pg))
			put(hm.version)
			put(uint32(len(hm.log)))
			for i := range hm.log {
				put(hm.log[i].version)
				put(uint32(hm.log[i].writer))
				put(uint32(len(hm.log[i].diff.Runs)))
			}
		}
	}
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
