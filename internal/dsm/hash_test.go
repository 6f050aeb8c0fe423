package dsm

import (
	"hash/fnv"
	"testing"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/sim"
)

// rigHash fingerprints every module of a rig the way the model checker
// and the chaos harness do.
func rigHash(r *rig) uint64 {
	h := fnv.New64a()
	for _, m := range r.mods {
		m.WriteStateHash(h)
	}
	return h.Sum64()
}

// TestStateHashSensitivity builds the same small three-host history per
// case, then changes exactly one fact of the final state behind the
// protocol's back: the fingerprint must move. Bulk bytes enter it as a
// digest, so the byte flips are the cases a weak digest would miss.
func TestStateHashSensitivity(t *testing.T) {
	// holder returns the first module for which ok reports true.
	holder := func(t *testing.T, r *rig, what string, ok func(m *Module) bool) *Module {
		t.Helper()
		for _, m := range r.mods {
			if ok(m) {
				return m
			}
		}
		t.Fatalf("no host holds %s", what)
		return nil
	}
	resident := func(pg PageNo) func(m *Module) bool {
		return func(m *Module) bool { lp := m.local[pg]; return lp != nil && lp.access != NoAccess }
	}
	managed := func(pg PageNo) func(m *Module) bool {
		return func(m *Module) bool { return m.mgr[pg] != nil }
	}
	replicas := func(m *Module) map[PageNo]*quorumPage { return m.engine.(*quorumEngine).qrm }
	replica := func(t *testing.T, r *rig, pg PageNo) *quorumPage {
		return replicas(holder(t, r, "a replica", func(m *Module) bool { return replicas(m)[pg] != nil }))[pg]
	}
	twins := func(m *Module) map[PageNo][]byte { return m.engine.(*rcEngine).rc.twins }
	cases := []struct {
		name   string
		opts   []rigOpt
		mutate func(t *testing.T, r *rig, pg PageNo)
	}{
		{"resident page byte", nil, func(t *testing.T, r *rig, pg PageNo) {
			holder(t, r, "the page", resident(pg)).local[pg].data[5] ^= 0x10
		}},
		{"resident page last allocated byte", nil, func(t *testing.T, r *rig, pg PageNo) {
			m := holder(t, r, "the page", resident(pg))
			m.local[pg].data[m.meta[pg].used-1] ^= 0x01
		}},
		{"access right", nil, func(t *testing.T, r *rig, pg PageNo) {
			lp := holder(t, r, "the page", resident(pg)).local[pg]
			if lp.access == ReadAccess {
				lp.access = WriteAccess
			} else {
				lp.access = ReadAccess
			}
		}},
		{"owner", nil, func(t *testing.T, r *rig, pg PageNo) {
			ent := holder(t, r, "the manager entry", managed(pg)).mgr[pg]
			ent.owner = (ent.owner + 1) % HostID(len(r.mods))
		}},
		{"copyset member", nil, func(t *testing.T, r *rig, pg PageNo) {
			ent := holder(t, r, "the manager entry", managed(pg)).mgr[pg]
			if len(ent.copyset) == 0 {
				t.Fatal("empty copyset: the history did not share the page")
			}
			delete(ent.copyset, sim.SortedKeys(ent.copyset)[0])
		}},
		{"quorum image byte", []rigOpt{withPolicy(PolicyQuorum)}, func(t *testing.T, r *rig, pg PageNo) {
			replica(t, r, pg).data[5] ^= 0x10
		}},
		{"quorum tag", []rigOpt{withPolicy(PolicyQuorum)}, func(t *testing.T, r *rig, pg PageNo) {
			replica(t, r, pg).tag.ts++
		}},
		{"rc twin byte", []rigOpt{withPolicy(PolicyRC)}, func(t *testing.T, r *rig, pg PageNo) {
			twins(holder(t, r, "a twin", func(m *Module) bool { return twins(m)[pg] != nil }))[pg][5] ^= 0x10
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func() (*rig, PageNo) {
				r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun}, c.opts...)
				var pg PageNo
				r.run("main", func(p *sim.Proc) {
					x, err := r.mods[0].Alloc(p, conv.Int32, 16)
					if err != nil {
						t.Error(err)
						return
					}
					pg = r.mods[0].PageOf(x)
					// Under RC the unreleased write leaves a live twin.
					r.mods[1].WriteInt32(p, x, 0x01020304)
					_ = r.mods[2].ReadInt32(p, x)
				})
				return r, pg
			}
			r, pg := build()
			before := rigHash(r)
			if again, _ := build(); rigHash(again) != before {
				t.Fatal("two identical histories fingerprint differently")
			}
			c.mutate(t, r, pg)
			if rigHash(r) == before {
				t.Errorf("fingerprint unchanged after changing the %s", c.name)
			}
		})
	}
}

// TestDigest64 pins digest64 to xxHash64's published vectors (they walk
// the short-input path, the stripe loop and all three tail steps), then
// every length that crosses a tail case (<4, 4..7, 8..31), the 32-byte
// stripe boundary, and a whole 8 KB page with and without its last
// byte: prefixes of one buffer must all differ, and so must each
// prefix with its first or last byte changed.
func TestDigest64(t *testing.T) {
	for _, v := range []struct {
		in   string
		want uint64
	}{
		{"", 0xEF46DB3751D8E999},
		{"a", 0xD24EC4F1A98C6E5B},
		{"abc", 0x44BC2CF5AD770999},
		{"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1},
	} {
		if got := digest64([]byte(v.in)); got != v.want {
			t.Errorf("digest64(%q) = %016x, want %016x", v.in, got, v.want)
		}
	}

	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i*131 + i>>8)
	}
	lengths := []int{8191, 8192}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	seen := make(map[uint64]int)
	for _, n := range lengths {
		d := digest64(buf[:n])
		if d != digest64(append([]byte(nil), buf[:n]...)) {
			t.Errorf("length %d: digest depends on more than the bytes", n)
		}
		if m, dup := seen[d]; dup {
			t.Errorf("lengths %d and %d of one buffer collide", m, n)
		}
		seen[d] = n
		if n == 0 {
			continue
		}
		for _, at := range []int{0, n - 1} {
			buf[at] ^= 0x80
			if digest64(buf[:n]) == d {
				t.Errorf("length %d: byte %d does not reach the digest", n, at)
			}
			buf[at] ^= 0x80
		}
	}
}

// TestDigest64EveryBitCounts flips each bit of a 64-byte input (two
// stripes, every lane twice) and requires 512 distinct digests, all
// different from the original's.
func TestDigest64EveryBitCounts(t *testing.T) {
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i * 7)
	}
	seen := map[uint64]int{digest64(in): -1}
	for bit := 0; bit < len(in)*8; bit++ {
		in[bit/8] ^= 1 << (bit % 8)
		d := digest64(in)
		in[bit/8] ^= 1 << (bit % 8)
		if other, dup := seen[d]; dup {
			t.Fatalf("flipping bit %d gives the digest of flip %d (-1 = no flip)", bit, other)
		}
		seen[d] = bit
	}
}
