package dsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/dsync"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// rcLock is the semaphore the carried-diff tests hand over; host 0
// manages it and is every page's home (DirCentral), so hosts 1–3
// acquire through remote grants and pull from a remote home.
const rcLock = 1

// rcTap is the RC engine as dsync's model, with taps on the release
// and on the grants cut for remote hosts once a release accumulated:
// when each ran, what each returned, and whom each grant was for.
type rcTap struct {
	*rcEngine
	k        *sim.Kernel
	released [][]byte
	relAt    []sim.Time
	grantTo  []HostID
	grantAt  []sim.Time
	grants   [][]byte
}

func (m *rcTap) ReleasePayload(p *sim.Proc) ([]byte, error) {
	b, err := m.rcEngine.ReleasePayload(p)
	m.released = append(m.released, b)
	m.relAt = append(m.relAt, p.Now())
	return b, err
}

func (m *rcTap) Grant(prim uint64, to HostID) []byte {
	cut := m.rcEngine.Grant(prim, to)
	if to != m.id && cut != nil {
		m.grantTo = append(m.grantTo, to)
		m.grantAt = append(m.grantAt, m.k.Now())
		m.grants = append(m.grants, cut)
	}
	return cut
}

// rcSyncRig is a Sun/Firefly/Sun/Firefly rig under PolicyRC with the
// synchronization facility attached, as the cluster attaches it.
type rcSyncRig struct {
	*rig
	sync []*dsync.Service
	taps []*rcTap
}

func newRCSyncRig(t *testing.T, reg *conv.Registry, pageSize int, plan *netsim.FaultPlan) *rcSyncRig {
	t.Helper()
	r := &rcSyncRig{rig: newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly},
		withPolicy(PolicyRC), withDirectory(DirCentral), withPageSize(pageSize), withRegistry(reg))}
	r.net.SetFaultPlan(plan)
	for _, mod := range r.mods {
		tap := &rcTap{rcEngine: mod.SyncModel(), k: r.k}
		s := dsync.New(r.k, mod.ep, mod.arch.Kind, r.cfg.Params)
		s.AttachModel(tap)
		s.DefineSemaphore(rcLock, 0, 1)
		r.sync = append(r.sync, s)
		r.taps = append(r.taps, tap)
	}
	return r
}

// interval runs one lock-bracketed write of v into addr on host w.
func (r *rcSyncRig) interval(p *sim.Proc, ty quorumDiffType, w int, addr Addr, v int32) {
	r.sync[w].P(p, rcLock)
	ty.write(p, r.mods[w], addr, v)
	r.sync[w].V(p, rcLock)
}

// acquire runs an empty lock bracket on host h and returns what its
// acquire did: pulls, diffs applied from the grant, conversions.
func (r *rcSyncRig) acquire(p *sim.Proc, h int) (pulls, carried, convs int) {
	before := r.mods[h].Stats()
	r.sync[h].P(p, rcLock)
	after := r.mods[h].Stats()
	r.sync[h].V(p, rcLock)
	return after.RCPulls - before.RCPulls, after.RCGrantDiffs - before.RCGrantDiffs, after.Conversions - before.Conversions
}

// rcCarriedCount counts the carried diff records in a payload.
func rcCarriedCount(payload []byte) int {
	n := 0
	for tail := payload[rcHeadLen(payload):]; len(tail) > 0; n++ {
		_, tail = rcNextCarried(tail)
	}
	return n
}

// canonicalAsHome fails the test unless host h's copy of pg, converted
// to Sun's representation with pointers rebased, equals the home's
// (host 0, a Sun) byte for byte.
func (r *rcSyncRig) canonicalAsHome(t *testing.T, reg *conv.Registry, h int, pg PageNo) {
	t.Helper()
	home := r.mods[0]
	used := home.meta[pg].used
	mod := r.mods[h]
	img := append([]byte(nil), mod.localPageFor(pg).data[:used]...)
	if sun := mustArch(arch.Sun); !mod.arch.Compatible(sun) {
		if _, err := reg.ConvertRegion(home.meta[pg].typeID, img, mod.arch, sun, int32(mod.base(arch.Sun))-int32(mod.base(mod.arch.Kind))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(img, home.localPageFor(pg).data[:used]) {
		t.Errorf("host %d's copy of page %d differs canonically from the home's", h, pg)
	}
}

// TestRCLockHandOffCarriesDiffs: a Firefly writer's interval reaches
// the next holders of the lock in the grants, with no pull. Host 2 (a
// Sun) is queued behind the writer and granted by its V; host 3 (a
// Firefly) is granted at once afterwards. The Sun converts the diff
// once, Firefly to Sun; the Firefly not at all — from the home, a Sun,
// it would have pulled and converted. Both end canonically identical
// to the home, for Int32, Float64 (VAX-G on the Fireflies) and a record
// whose pointer is rebased.
func TestRCLockHandOffCarriesDiffs(t *testing.T) {
	reg := conv.NewRegistry()
	for _, ty := range quorumDiffTypes(t, reg) {
		t.Run(ty.name, func(t *testing.T) {
			r := newRCSyncRig(t, reg, 1024, nil)
			r.run("main", func(p *sim.Proc) {
				addr, err := r.mods[0].Alloc(p, ty.id, 32)
				if err != nil {
					t.Error(err)
					return
				}
				pg := r.mods[0].PageOf(addr)
				elem := func(i int) Addr { return addr + Addr(i*ty.size) }
				for h := 1; h < 4; h++ {
					ty.read(p, r.mods[h], elem(0)) // resident before the interval
				}
				var q struct{ pulls, carried, convs int }
				r.sync[1].P(p, rcLock)
				ty.write(p, r.mods[1], elem(5), 7)
				r.k.Spawn("queued", func(p *sim.Proc) {
					q.pulls, q.carried, q.convs = r.acquire(p, 2)
				})
				p.Sleep(100 * time.Millisecond) // host 2 queues behind the writer
				r.sync[1].V(p, rcLock)
				p.Sleep(time.Second)
				if q.pulls != 0 || q.carried != 1 || q.convs != 1 {
					t.Errorf("the queued Sun's acquire made %d pulls, applied %d carried diffs, converted %d times; want 0, 1, 1", q.pulls, q.carried, q.convs)
				}
				if pulls, carried, convs := r.acquire(p, 3); pulls != 0 || carried != 1 || convs != 0 {
					t.Errorf("the Firefly's acquire made %d pulls, applied %d carried diffs, converted %d times; want 0, 1, 0", pulls, carried, convs)
				}
				for h := 1; h < 4; h++ {
					if v := ty.read(p, r.mods[h], elem(5)); v != 7 {
						t.Errorf("host %d read %d after the hand-off, want 7", h, v)
					}
					r.canonicalAsHome(t, reg, h, pg)
				}
				// Host 2 was sent the diff: its next grant carries none.
				if pulls, carried, _ := r.acquire(p, 2); pulls != 0 || carried != 0 {
					t.Errorf("host 2's second acquire made %d pulls, applied %d carried diffs; want none", pulls, carried)
				}
				tap := r.taps[0]
				if len(tap.grantTo) != 3 || tap.grantTo[0] != 2 || tap.grantTo[1] != 3 || tap.grantTo[2] != 2 {
					t.Fatalf("host 0 cut grants for %v, want [2 3 2]", tap.grantTo)
				}
				for i, want := range []int{1, 1, 0} {
					if n := rcCarriedCount(tap.grants[i]); n != want {
						t.Errorf("grant %d to host %d carried %d diffs, want %d", i, tap.grantTo[i], n, want)
					}
				}
			})
		})
	}
}

// TestRCAcquirerBehindTheLogCapPulls: the manager keeps the newest
// rcLogCap diffs of a page, so an acquirer exactly rcLogCap versions
// behind catches up from its grant, and one a version further behind
// makes exactly one pull (the home's log is past it too: the whole
// page).
func TestRCAcquirerBehindTheLogCapPulls(t *testing.T) {
	reg := conv.NewRegistry()
	ty := quorumDiffTypes(t, reg)[0]
	r := newRCSyncRig(t, reg, 1024, nil)
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, ty.id, 32)
		if err != nil {
			t.Error(err)
			return
		}
		ty.read(p, r.mods[2], addr)
		ty.read(p, r.mods[3], addr)
		r.interval(p, ty, 1, addr, 1)
		if pulls, carried, _ := r.acquire(p, 2); pulls != 0 || carried != 1 {
			t.Errorf("host 2 one version behind: %d pulls, %d carried diffs; want 0, 1", pulls, carried)
		}
		for v := int32(2); v <= rcLogCap+1; v++ {
			r.interval(p, ty, 1, addr+4, v)
		}
		if pulls, carried, _ := r.acquire(p, 2); pulls != 0 || carried != rcLogCap {
			t.Errorf("host 2 %d versions behind: %d pulls, %d carried diffs; want 0, %d", rcLogCap, pulls, carried, rcLogCap)
		}
		if pulls, carried, _ := r.acquire(p, 3); pulls != 1 || carried != 0 {
			t.Errorf("host 3 %d versions behind: %d pulls, %d carried diffs; want 1, 0", rcLogCap+1, pulls, carried)
		}
		for h := 2; h < 4; h++ {
			if a, b := ty.read(p, r.mods[h], addr), ty.read(p, r.mods[h], addr+4); a != 1 || b != rcLogCap+1 {
				t.Errorf("host %d read %d, %d; want 1, %d", h, a, b, rcLogCap+1)
			}
		}
	})
}

// TestRCDiffThatWouldAddAFragmentIsPulled: one interval rewrites a
// whole 4 KB page and one element of the next. The big diff would need
// more fragments than the payload without it, so the release leaves it
// out and the acquirer pulls it; the small one rides the grant.
func TestRCDiffThatWouldAddAFragmentIsPulled(t *testing.T) {
	reg := conv.NewRegistry()
	ty := quorumDiffTypes(t, reg)[0]
	const page = 4096
	r := newRCSyncRig(t, reg, page, nil)
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, ty.id, 2*page/4)
		if err != nil {
			t.Error(err)
			return
		}
		ty.read(p, r.mods[2], addr)
		ty.read(p, r.mods[2], addr+page)
		vals := make([]int32, page/4)
		for i := range vals {
			vals[i] = int32(i + 1)
		}
		r.sync[1].P(p, rcLock)
		r.mods[1].WriteInt32s(p, addr, vals)
		ty.write(p, r.mods[1], addr+page, 9)
		r.sync[1].V(p, rcLock)
		payload := r.taps[1].released[0]
		if n := r.cfg.Params.Fragments(rcSyncEnvelope + len(payload)); n != 1 {
			t.Errorf("the release payload needs %d fragments, want 1", n)
		}
		if pulls, carried, _ := r.acquire(p, 2); pulls != 1 || carried != 1 {
			t.Errorf("acquire: %d pulls, %d carried diffs; want 1, 1", pulls, carried)
		}
		got := make([]int32, len(vals))
		r.mods[2].ReadInt32s(p, addr, got)
		for i := range got {
			if got[i] != vals[i] {
				t.Errorf("element %d = %d after the pull, want %d", i, got[i], vals[i])
				break
			}
		}
		if v := ty.read(p, r.mods[2], addr+page); v != 9 {
			t.Errorf("the carried element reads %d, want 9", v)
		}
	})
}

// TestRCCarriedDiffsSurviveLostFrames drops, once, the frame of the
// grant that carries a writer's diff, and separately the frame of the
// release that carries it. The acquire still applies the diff exactly
// once from a grant and pulls nothing: a lost grant is resent from the
// manager's reply cache (the cut is made once), a lost release is
// retransmitted before anything merged it.
func TestRCCarriedDiffsSurviveLostFrames(t *testing.T) {
	reg := conv.NewRegistry()
	ty := quorumDiffTypes(t, reg)[0]
	scenario := func(plan *netsim.FaultPlan) *rcSyncRig {
		r := newRCSyncRig(t, reg, 1024, plan)
		r.run("main", func(p *sim.Proc) {
			addr, err := r.mods[0].Alloc(p, ty.id, 32)
			if err != nil {
				t.Error(err)
				return
			}
			ty.read(p, r.mods[2], addr)
			r.interval(p, ty, 1, addr, 5)
			if pulls, carried, _ := r.acquire(p, 2); pulls != 0 || carried != 1 {
				t.Errorf("acquire: %d pulls, %d carried diffs; want 0, 1", pulls, carried)
			}
			if v := ty.read(p, r.mods[2], addr); v != 5 {
				t.Errorf("host 2 read %d, want 5", v)
			}
		})
		if s := r.mods[2].Stats(); s.RCDiffsApplied != 1 || s.RCGrantDiffs != 1 {
			t.Errorf("host 2 applied %d diffs, %d from grants; want 1 and 1", s.RCDiffsApplied, s.RCGrantDiffs)
		}
		return r
	}
	clean := scenario(nil)
	if len(clean.taps[0].grantTo) != 1 || len(clean.taps[1].relAt) != 1 {
		t.Fatalf("the clean run cut %d grants and made %d releases on host 1, want 1 and 1", len(clean.taps[0].grantTo), len(clean.taps[1].relAt))
	}
	// The frame leaves within one message setup and one fragment cost
	// of the tap; nothing else is on the wire then.
	drop := func(at sim.Time) *netsim.FaultPlan {
		return &netsim.FaultPlan{Loss: []netsim.Burst{{Window: netsim.Window{From: at, Until: at + sim.Time(20*time.Millisecond)}, Rate: 1}}}
	}
	t.Run("grant", func(t *testing.T) {
		r := scenario(drop(clean.taps[0].grantAt[0]))
		if n := r.net.Stats().FramesDropped; n != 1 {
			t.Errorf("%d frames dropped, want 1", n)
		}
		if n := len(r.taps[0].grantTo); n != 1 {
			t.Errorf("host 0 cut %d grants, want 1", n)
		}
		if n := r.mods[0].ep.Stats().Duplicates; n != 1 {
			t.Errorf("host 0 answered %d retransmissions from its reply cache, want 1", n)
		}
	})
	t.Run("release", func(t *testing.T) {
		r := scenario(drop(clean.taps[1].relAt[0]))
		if n := r.net.Stats().FramesDropped; n != 1 {
			t.Errorf("%d frames dropped, want 1", n)
		}
		if n := r.mods[1].ep.Stats().Retransmits; n != 1 {
			t.Errorf("host 1 retransmitted %d requests, want 1", n)
		}
	})
}

// TestRCMergePayloadMatchesNaiveMerge holds the in-place fold to the
// obvious merge over random canonical payloads: timestamps and notices
// by maximum, carried diffs by union, sorted by page and newest version
// first, rcLogCap kept per page. Folding a then b encodes the naive
// merge, so does b then a, and a alone encodes a itself; none of them
// keeps a reference to the payload it folded.
func TestRCMergePayloadMatchesNaiveMerge(t *testing.T) {
	type carried struct {
		page PageNo
		ver  uint32
	}
	// body is the record of (page, ver): one interval has one diff.
	body := func(c carried) []byte {
		b := make([]byte, rcCarryHdr+4+int(c.ver%5))
		binary.BigEndian.PutUint32(b, uint32(c.page))
		binary.BigEndian.PutUint32(b[4:], c.ver)
		binary.BigEndian.PutUint16(b[8:], uint16(c.ver%3))
		binary.BigEndian.PutUint16(b[10:], uint16(arch.Firefly))
		binary.BigEndian.PutUint32(b[12:], uint32(len(b)-rcCarryHdr))
		for i := rcCarryHdr; i < len(b); i++ {
			b[i] = byte(c.ver*7 + uint32(c.page) + uint32(i))
		}
		return b
	}
	// encode writes a canonical payload; diffs must be unique.
	encode := func(vt []uint32, notices map[PageNo]uint32, diffs []carried) []byte {
		var b []byte
		b = binary.BigEndian.AppendUint32(b, uint32(len(vt)))
		for _, v := range vt {
			b = binary.BigEndian.AppendUint32(b, v)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(notices)))
		for _, pg := range sim.SortedKeys(notices) {
			b = binary.BigEndian.AppendUint32(b, uint32(pg))
			b = binary.BigEndian.AppendUint32(b, notices[pg])
		}
		slices.SortFunc(diffs, func(x, y carried) int {
			if x.page != y.page {
				return cmp.Compare(x.page, y.page)
			}
			return cmp.Compare(y.ver, x.ver)
		})
		kept := map[PageNo]int{}
		for _, c := range diffs {
			if kept[c.page]++; kept[c.page] <= rcLogCap {
				b = append(b, body(c)...)
			}
		}
		return b
	}
	rng := rand.New(rand.NewSource(1))
	type parts struct {
		vt      []uint32
		notices map[PageNo]uint32
		diffs   []carried
	}
	draw := func() parts {
		p := parts{vt: make([]uint32, 1+rng.Intn(4)), notices: map[PageNo]uint32{}}
		for i := range p.vt {
			p.vt[i] = uint32(rng.Intn(9))
		}
		for n := rng.Intn(6); n > 0; n-- {
			p.notices[PageNo(rng.Intn(6))] = uint32(1 + rng.Intn(40))
		}
		seen := map[carried]bool{}
		for n := rng.Intn(40); n > 0; n-- {
			c := carried{PageNo(rng.Intn(6)), uint32(1 + rng.Intn(40))}
			if !seen[c] {
				seen[c] = true
				p.diffs = append(p.diffs, c)
			}
		}
		return p
	}
	for i := 0; i < 2000; i++ {
		a, b := draw(), draw()
		vt := slices.Clone(a.vt)
		if len(b.vt) > len(vt) {
			vt = slices.Clone(b.vt)
		}
		for _, p := range []parts{a, b} {
			for k, v := range p.vt {
				vt[k] = max(vt[k], v)
			}
		}
		notices := map[PageNo]uint32{}
		union := map[carried]bool{}
		var diffs []carried
		for _, p := range []parts{a, b} {
			for _, pg := range sim.SortedKeys(p.notices) {
				notices[pg] = max(notices[pg], p.notices[pg])
			}
			// Each input is trimmed as a payload is: only what encode kept.
			kept := encode(nil, nil, slices.Clone(p.diffs))[8:]
			for len(kept) > 0 {
				var c rcCarried
				c, kept = rcNextCarried(kept)
				if k := (carried{c.page, c.ver}); !union[k] {
					union[k] = true
					diffs = append(diffs, k)
				}
			}
		}
		pa, pb := encode(a.vt, a.notices, a.diffs), encode(b.vt, b.notices, b.diffs)
		want := encode(vt, notices, diffs)
		fold := func(payloads ...[]byte) []byte {
			var acc rcAccum
			for _, p := range payloads {
				wire := bytes.Clone(p)
				acc.fold(wire)
				clear(wire) // a pooled wire buffer is reused at once
			}
			return acc.encoding()
		}
		if got := fold(pa, pb); !bytes.Equal(got, want) {
			t.Fatalf("draw %d: fold differs from the naive merge\n got %x\nwant %x", i, got, want)
		}
		if got := fold(pb, pa); !bytes.Equal(got, want) {
			t.Fatalf("draw %d: the fold depends on the order", i)
		}
		if got := fold(pa); !bytes.Equal(got, pa) {
			t.Fatalf("draw %d: folding into nothing changed the payload", i)
		}
	}
}

// TestRCRecycledTwinsStayPerPage: a released interval's twins serve the
// next interval, one page each. Two pages written after a release diff
// against twins of their own, so each diff carries the one element its
// interval wrote.
func TestRCRecycledTwinsStayPerPage(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPolicy(PolicyRC), withDirectory(DirCentral))
	w := r.mods[1]
	r.run("main", func(p *sim.Proc) {
		a, err := r.mods[0].Alloc(p, conv.Int32, 2*2048)
		if err != nil {
			t.Error(err)
			return
		}
		b := a + Addr(r.cfg.PageSize)
		interval := func(off Addr, va, vb int32) {
			w.WriteInt32(p, a+off, va)
			w.WriteInt32(p, b+off, vb)
			if _, err := w.SyncModel().ReleasePayload(p); err != nil {
				t.Error(err)
			}
		}
		interval(0, 1, 2)
		before := w.Stats()
		interval(4, 3, 4)
		after := w.Stats()
		// One run of one int32 per page: a 4-byte header, one 8-byte run
		// entry and the element.
		if n, bytes := after.RCDiffsSent-before.RCDiffsSent, after.RCDiffBytes-before.RCDiffBytes; n != 2 || bytes != 2*16 {
			t.Errorf("the second interval sent %d diffs of %d bytes, want 2 of 32", n, bytes)
		}
	})
}
