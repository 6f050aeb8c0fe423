package dsm

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

func TestQuorumTagOrdering(t *testing.T) {
	cases := []struct {
		name string
		a, b quorumTag
		less bool
	}{
		{"zero-vs-zero", quorumTag{}, quorumTag{}, false},
		{"zero-vs-first-write", quorumTag{}, quorumTag{ts: 1, host: 0}, true},
		{"timestamp-dominates", quorumTag{ts: 1, host: 9}, quorumTag{ts: 2, host: 0}, true},
		{"timestamp-dominates-reverse", quorumTag{ts: 2, host: 0}, quorumTag{ts: 1, host: 9}, false},
		{"host-breaks-ties", quorumTag{ts: 5, host: 1}, quorumTag{ts: 5, host: 2}, true},
		{"host-breaks-ties-reverse", quorumTag{ts: 5, host: 2}, quorumTag{ts: 5, host: 1}, false},
		{"equal-tags", quorumTag{ts: 7, host: 3}, quorumTag{ts: 7, host: 3}, false},
		{"large-timestamps", quorumTag{ts: 1<<31 - 1, host: 0}, quorumTag{ts: 1 << 31, host: 0}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.less(tc.b); got != tc.less {
				t.Errorf("(%v).less(%v) = %v, want %v", tc.a, tc.b, got, tc.less)
			}
			// Strict order: at most one of a<b, b<a.
			if tc.a.less(tc.b) && tc.b.less(tc.a) {
				t.Errorf("both (%v).less(%v) and its reverse hold", tc.a, tc.b)
			}
			// Irreflexive on equal tags.
			if tc.a == tc.b && (tc.a.less(tc.b) || tc.b.less(tc.a)) {
				t.Errorf("equal tags %v compare as ordered", tc.a)
			}
		})
	}
}

func TestQuorumMajority(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{5, 3},
		{1024, 513},
	}
	for _, tc := range cases {
		got := quorumMajority(tc.n)
		if got != tc.want {
			t.Errorf("quorumMajority(%d) = %d, want %d", tc.n, got, tc.want)
		}
		// The property everything rests on: two majorities always share a
		// replica, and a majority survives the loss of any minority.
		if 2*got <= tc.n {
			t.Errorf("two majorities of %d (size %d) need not intersect", tc.n, got)
		}
		if got > tc.n {
			t.Errorf("majority of %d is %d hosts — unattainable", tc.n, got)
		}
	}
}

func TestQuorumPolicyRoundTrip(t *testing.T) { policyRoundTrip(t, PolicyQuorum, DirFixed) }

func TestQuorumTagsAdvanceMonotonically(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyQuorum))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		pg := r.mods[0].PageOf(addr)
		writers := []int{0, 1, 2, 1, 0}
		var prev quorumTag
		for i, w := range writers {
			r.mods[w].WriteInt32s(p, addr, []int32{int32(i)})
			tag := r.mods[w].engine.(*quorumEngine).qrmPageFor(pg).tag
			if !prev.less(tag) {
				t.Fatalf("write %d by host %d: tag %v does not advance past %v", i, w, tag, prev)
			}
			if tag.host != HostID(w) {
				t.Fatalf("write %d: tag names writer %d, want %d", i, tag.host, w)
			}
			prev = tag
		}
	})
}

func TestQuorumReadWritesWinnerBack(t *testing.T) {
	// Host 2's replica is hand-advanced past everything a majority
	// stores; its next read must win with the local version and push it
	// to a majority (the write-back that makes interrupted writes
	// atomic), because phase 1 cannot prove any other replica has it.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun}, withPolicy(PolicyQuorum))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{5})

		pg := r.mods[2].PageOf(addr)
		qp := r.mods[2].engine.(*quorumEngine).qrmPageFor(pg)
		conv.PutInt32(r.mods[2].arch, qp.data[int(addr)-int(pg)*r.cfg.PageSize:], 7)
		qp.tag = quorumTag{ts: qp.tag.ts + 10, host: 2}

		var v [1]int32
		r.mods[2].ReadInt32s(p, addr, v[:])
		if v[0] != 7 {
			t.Fatalf("read returned %d, want the locally newest 7", v[0])
		}
		if wb := r.mods[2].Stats().QuorumWriteBacks; wb == 0 {
			t.Fatal("read of an unconfirmed winner did not write it back to a majority")
		}
		// After the write-back a majority stores the winner: any other
		// host's read must return it too.
		r.mods[0].ReadInt32s(p, addr, v[:])
		if v[0] != 7 {
			t.Fatalf("host 0 read %d after write-back, want 7", v[0])
		}
	})
}

func TestQuorumWriteBackConvertsAcrossArchitectures(t *testing.T) {
	// The winner originates at a Firefly (VAX-format floats) and reaches
	// the Sun hosts through the read write-back: the IEEE image the Sun
	// reads must round-trip the value exactly.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyQuorum))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Float64, 8)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteFloat64s(p, addr, []float64{1.5})

		pg := r.mods[1].PageOf(addr)
		qp := r.mods[1].engine.(*quorumEngine).qrmPageFor(pg)
		conv.PutFloat64(r.mods[1].arch, qp.data[int(addr)-int(pg)*r.cfg.PageSize:], -42.25)
		qp.tag = quorumTag{ts: qp.tag.ts + 10, host: 1}

		var v [1]float64
		r.mods[1].ReadFloat64s(p, addr, v[:])
		if v[0] != -42.25 {
			t.Fatalf("firefly read %v, want -42.25", v[0])
		}
		var sv [1]float64
		r.mods[0].ReadFloat64s(p, addr, sv[:])
		if sv[0] != -42.25 {
			t.Fatalf("sun read %v after cross-architecture write-back, want -42.25", sv[0])
		}
		if r.mods[0].Stats().Conversions == 0 && r.mods[1].Stats().Conversions == 0 {
			t.Fatal("no conversion recorded on an IEEE↔VAX quorum round-trip")
		}
	})
}

func TestQuorumStatsCount(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPolicy(PolicyQuorum))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{1})
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		if v[0] != 1 {
			t.Fatalf("read %d, want 1", v[0])
		}
		if s := r.mods[0].Stats(); s.QuorumWrites != 1 {
			t.Errorf("writer counted %d quorum writes, want 1", s.QuorumWrites)
		}
		if s := r.mods[1].Stats(); s.QuorumReads != 1 {
			t.Errorf("reader counted %d quorum reads, want 1", s.QuorumReads)
		}
		if s := r.mods[0].Stats(); s.QuorumRetries != 0 {
			t.Errorf("fault-free run counted %d quorum retries, want 0", s.QuorumRetries)
		}
	})
}

// TestQuorumReplicaCopyOnWrite pins the copy-on-write rule of quorum
// replicas. Host 0 is put behind — it lost the installs of its own
// writes — so host 1 answers its read with a body its reply cache
// keeps: its replica's own image when host 0 is two versions behind,
// the diff that produced its version when host 0 is one behind. Each
// case then changes that replica one way and re-delivers host 0's
// request as a duplicate. The resend must carry the bytes first sent —
// the reply cache's resend check panics otherwise — so each of the
// three unshare calls is load-bearing in one of the image cases, and
// the diff case needs a shared diff kept out of the buffer pool.
func TestQuorumReplicaCopyOnWrite(t *testing.T) {
	cases := []struct {
		name   string
		behind int
		change func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo)
	}{
		{"local write", 2, func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			r.mods[1].WriteInt32(p, addr, 3)
		}},
		{"phase-1 install", 2, func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			// Hosts 0 and 2 hold a newer version host 1 has not seen: its
			// next read installs it from whichever answers first.
			for _, h := range []int{0, 2} {
				qp := r.mods[h].engine.(*quorumEngine).qrmPageFor(pg)
				qp.unshare(0)
				conv.PutInt32(r.mods[h].arch, qp.data[int(addr)-int(pg)*r.cfg.PageSize:], 3)
				qp.setVersion(quorumTag{ts: 10, host: 2}, quorumTag{}, nil)
			}
			if v := r.mods[1].ReadInt32(p, addr); v != 3 {
				t.Errorf("host 1 read %d, want the newer 3", v)
			}
		}},
		{"phase-2 install", 2, func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			r.mods[2].WriteInt32(p, addr, 3)
		}},
		{"diff reply", 1, func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			r.mods[1].WriteInt32(p, addr, 3)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun}, withPolicy(PolicyQuorum), withPageSize(1024))
			var read *proto.Message
			r.run("main", func(p *sim.Proc) {
				addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
				if err != nil {
					t.Error(err)
					return
				}
				pg := r.mods[0].PageOf(addr)
				behind := r.mods[0].engine.(*quorumEngine).qrmPageFor(pg)
				var old [][]byte
				var oldTags []quorumTag
				for v := int32(1); v <= 2; v++ {
					old, oldTags = append(old, append([]byte(nil), behind.data...)), append(oldTags, behind.tag)
					r.mods[0].WriteInt32(p, addr, v)
					p.Sleep(50 * time.Millisecond)
				}
				behind.unshare(0)
				copy(behind.data, old[2-c.behind])
				behind.setVersion(oldTags[2-c.behind], quorumTag{}, nil)
				host1 := r.mods[1].engine.(*quorumEngine)
				r.mods[1].ep.HandleEvent(proto.KindQuorumRead, remoteop.EventHandler{
					Charge: host1.quorumReadCharge,
					Reply: func(req *proto.Message) *proto.Message {
						if req.From == 0 {
							read = req
						}
						return host1.handleQuorumRead(req)
					},
				})
				if v := r.mods[0].ReadInt32(p, addr); v != 2 {
					t.Fatalf("host 0 read %d, want 2", v)
				}
				p.Sleep(50 * time.Millisecond)
				qp := host1.qrmPageFor(pg)
				// The reply holds the image or, one version behind, the diff.
				if diff := c.behind == 1; read == nil || qp.diffShared != diff || qp.shared == diff {
					t.Fatalf("host 1's read reply to an asker %d versions behind holds diff %v, image %v", c.behind, qp.diffShared, qp.shared)
				}
				v1 := qp.tag
				c.change(t, r, p, addr, pg)
				p.Sleep(50 * time.Millisecond)
				if qp.tag == v1 {
					t.Fatalf("host 1's replica is still at %v: the case changed nothing", v1)
				}
				dups := r.mods[1].ep.Stats().Duplicates
				r.mods[0].ep.Forward(p, 1, read)
				p.Sleep(50 * time.Millisecond)
				if r.mods[1].ep.Stats().Duplicates != dups+1 {
					t.Fatal("the re-delivered read was not answered from the reply cache")
				}
			})
		})
	}
}

// TestQuorumReadRepliesCarryOnlyNewerImages pins the phase-1 reply
// shape: the query carries the asker's tag, and a replica attaches its
// image — and marks it shared — only when its own tag orders above it.
// Every host's reply is recorded, stragglers included.
func TestQuorumReadRepliesCarryOnlyNewerImages(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly, arch.Sun}, withPolicy(PolicyQuorum), withPageSize(1024))
	bodies := map[HostID]bool{} // replica → whether its last reply to host 0 carried an image
	for _, mod := range r.mods[1:] {
		e := mod.engine.(*quorumEngine)
		mod.ep.HandleEvent(proto.KindQuorumRead, remoteop.EventHandler{
			Charge: e.quorumReadCharge,
			Reply: func(req *proto.Message) *proto.Message {
				reply := e.handleQuorumRead(req)
				if req.From == 0 {
					bodies[e.id] = len(reply.Data) > 0
				}
				return reply
			},
		})
	}
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		pg := r.mods[0].PageOf(addr)
		replica := func(h int) *quorumPage { return r.mods[h].engine.(*quorumEngine).qrmPageFor(pg) }
		// read has host 0 read the page and returns which replicas
		// answered with an image, after every reply has arrived.
		read := func(want int32) []HostID {
			clear(bodies)
			for _, mod := range r.mods {
				replica(int(mod.id)).shared = false
			}
			fetched := r.mods[0].Stats().BytesFetched
			if v := r.mods[0].ReadInt32(p, addr); v != want {
				t.Fatalf("host 0 read %d, want %d", v, want)
			}
			p.Sleep(50 * time.Millisecond)
			if len(bodies) != len(r.mods)-1 {
				t.Fatalf("%d of %d replicas answered", len(bodies), len(r.mods)-1)
			}
			var with []HostID
			for h := HostID(1); int(h) < len(r.mods); h++ {
				if bodies[h] != replica(int(h)).shared {
					t.Errorf("replica %d: image sent %v, marked shared %v", h, bodies[h], replica(int(h)).shared)
				}
				if bodies[h] {
					with = append(with, h)
				}
			}
			// A winner that is not host 0's own replica is installed
			// from its reply, which must have carried the whole image.
			if got := r.mods[0].Stats().BytesFetched - fetched; len(with) > 0 && got != r.mods[0].meta[pg].used {
				t.Errorf("host 0 installed %d bytes from the round's winner, want the %d-byte image", got, r.mods[0].meta[pg].used)
			}
			return with
		}

		// Host 0 wrote last and every replica installed it: up to date,
		// it gets tags alone.
		r.mods[0].WriteInt32(p, addr, 1)
		p.Sleep(50 * time.Millisecond)
		if with := read(1); len(with) != 0 {
			t.Errorf("an up-to-date asker got images from %v", with)
		}

		// Hosts 1–3 hold a newer version hosts 0 and 4 have not seen —
		// three of host 0's four peers, so whichever two answer first
		// include one: host 0 is stale, and exactly they answer with
		// their image.
		for _, h := range []int{1, 2, 3} {
			qp := replica(h)
			conv.PutInt32(r.mods[h].arch, qp.data[int(addr)-int(pg)*r.cfg.PageSize:], 2)
			qp.setVersion(quorumTag{ts: 10, host: 3}, quorumTag{}, nil)
		}
		with := read(2)
		if len(with) != 3 || with[0] != 1 || with[1] != 2 || with[2] != 3 {
			t.Errorf("a stale asker got images from %v, want exactly the newer replicas [1 2 3]", with)
		}
		if tag := replica(0).tag; tag != (quorumTag{ts: 10, host: 3}) {
			t.Errorf("host 0's replica is at %v after the read, want the winner's tag", tag)
		}
	})
}

// quorumDiffType is one element type the diff-transport tests write: a
// swap-kernel integer, a float that converts to VAX-G, and a record
// whose pointer is rebased between the two kinds' DSM bases.
type quorumDiffType struct {
	name  string
	id    conv.TypeID
	size  int
	write func(p *sim.Proc, m *Module, addr Addr, v int32)
	// read returns the counter write stored, or -1 when the element's
	// other fields do not match it.
	read func(p *sim.Proc, m *Module, addr Addr) int32
}

func quorumDiffTypes(t *testing.T, reg *conv.Registry) []quorumDiffType {
	rec, err := reg.RegisterStruct("quorum-record", []conv.Field{{Type: conv.Int32, Count: 1}, {Type: conv.Pointer, Count: 1}, {Type: conv.Float64, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return []quorumDiffType{
		{"int32", conv.Int32, 4,
			func(p *sim.Proc, m *Module, addr Addr, v int32) { m.WriteInt32(p, addr, v) },
			func(p *sim.Proc, m *Module, addr Addr) int32 { return m.ReadInt32(p, addr) }},
		{"float64", conv.Float64, 8,
			func(p *sim.Proc, m *Module, addr Addr, v int32) {
				m.WriteFloat64s(p, addr, []float64{float64(v) + 0.25})
			},
			func(p *sim.Proc, m *Module, addr Addr) int32 {
				var v [1]float64
				m.ReadFloat64s(p, addr, v[:])
				if n := int32(v[0]); v[0] == float64(n)+0.25 {
					return n
				}
				return -1
			}},
		{"record", rec, 16,
			func(p *sim.Proc, m *Module, addr Addr, v int32) {
				var b [16]byte
				conv.PutInt32(m.arch, b[0:4], v)
				conv.PutPointer(m.arch, b[4:8], m.Base()+uint32(addr))
				conv.PutFloat64(m.arch, b[8:16], float64(v)/2)
				m.WriteStruct(p, addr, rec, b[:])
			},
			func(p *sim.Proc, m *Module, addr Addr) int32 {
				var b [16]byte
				m.ReadStruct(p, addr, rec, b[:])
				n := conv.GetInt32(m.arch, b[0:4])
				if conv.GetPointer(m.arch, b[4:8]) != m.Base()+uint32(addr) || conv.GetFloat64(m.arch, b[8:16]) != float64(n)/2 {
					return -1
				}
				return n
			}},
	}
}

// TestQuorumWritesShipDiffs pins the diff transport on a
// Sun/Firefly/Sun/Firefly cluster, for each element type: a one-element
// write's phase-2 bodies are a one-run diff, a replica one version
// behind gets the diff in its phase-1 reply, a replica two versions
// behind refuses the diff and the writer sends the image, and every
// replica ends canonically identical — Firefly replicas converted to
// Sun's representation, pointers rebased, equal byte for byte.
func TestQuorumWritesShipDiffs(t *testing.T) {
	reg := conv.NewRegistry()
	for _, ty := range quorumDiffTypes(t, reg) {
		t.Run(ty.name, func(t *testing.T) {
			r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly}, withPolicy(PolicyQuorum), withPageSize(1024), withRegistry(reg))
			diffSize := (&conv.Diff{Runs: make([]conv.DiffRun, 1), Data: make([]byte, ty.size)}).EncodedSize()
			var pushed []int // the body sizes of every phase-2 request
			var diffReplies []int
			for _, mod := range r.mods {
				e := mod.engine.(*quorumEngine)
				mod.ep.Handle(proto.KindQuorumWrite, func(p *sim.Proc, req *proto.Message) {
					pushed = append(pushed, len(req.Data))
					e.handleQuorumWrite(p, req)
				})
				mod.ep.HandleEvent(proto.KindQuorumRead, remoteop.EventHandler{
					Charge: e.quorumReadCharge,
					Reply: func(req *proto.Message) *proto.Message {
						reply := e.handleQuorumRead(req)
						if reply.Arg(2) == quorumDiffBody {
							diffReplies = append(diffReplies, len(reply.Data))
						}
						return reply
					},
				})
			}
			r.run("main", func(p *sim.Proc) {
				addr, err := r.mods[0].Alloc(p, ty.id, 32)
				if err != nil {
					t.Error(err)
					return
				}
				pg := r.mods[0].PageOf(addr)
				elem := func(i int) Addr { return addr + Addr(i*ty.size) }
				replica := func(h int) *quorumPage { return r.mods[h].engine.(*quorumEngine).qrmPageFor(pg) }
				type snap struct {
					data []byte
					tag  quorumTag
				}
				save := func(h int) snap { return snap{append([]byte(nil), replica(h).data...), replica(h).tag} }
				restore := func(h int, s snap) {
					qp := replica(h)
					qp.unshare(0)
					copy(qp.data, s.data)
					qp.setVersion(s.tag, quorumTag{}, nil)
				}
				// write has host w store v into element i and checks that
				// every phase-2 body was a one-element diff.
				write := func(w, i int, v int32) {
					pushed = pushed[:0]
					ty.write(p, r.mods[w], elem(i), v)
					p.Sleep(50 * time.Millisecond)
					for _, n := range pushed {
						if n != diffSize {
							t.Errorf("host %d's one-element write pushed a %d-byte body, want the %d-byte diff", w, n, diffSize)
						}
					}
					if len(pushed) != len(r.mods)-1 {
						t.Errorf("host %d's write reached %d peers, want %d", w, len(pushed), len(r.mods)-1)
					}
				}
				identical := func(when string) {
					want := replica(0).tag
					var canon []byte
					for h, mod := range r.mods {
						qp := replica(h)
						if qp.tag != want {
							t.Errorf("%s: host %d is at %v, host 0 at %v", when, h, qp.tag, want)
						}
						img := append([]byte(nil), qp.data[:mod.meta[pg].used]...)
						if sun := mustArch(arch.Sun); !mod.arch.Compatible(sun) {
							if _, err := reg.ConvertRegion(ty.id, img, mod.arch, sun, int32(mod.base(arch.Sun))-int32(mod.base(mod.arch.Kind))); err != nil {
								t.Error(err)
								return
							}
						}
						if canon == nil {
							canon = img
						} else if !bytes.Equal(img, canon) {
							t.Errorf("%s: host %d's replica differs canonically from host 0's", when, h)
						}
					}
				}

				t0 := save(3) // the allocation-time version, zero on every machine
				write(0, 3, 1)
				t1 := save(3)
				write(1, 5, 2) // from a Firefly: the Sun replicas convert the diff
				identical("after two diff writes")
				if s := r.mods[0].Stats(); s.QuorumDiffPushes != 1 || s.QuorumImagePushes != 0 {
					t.Errorf("host 0 counted %d diff and %d image pushes, want 1 and 0", s.QuorumDiffPushes, s.QuorumImagePushes)
				}

				// One version behind: host 3 lost the install of host 1's
				// write, so every peer answers its read with that diff.
				restore(3, t1)
				diffReplies = diffReplies[:0]
				fetched := r.mods[3].Stats().BytesFetched
				if v := ty.read(p, r.mods[3], elem(5)); v != 2 {
					t.Errorf("host 3 read %d one version behind, want 2", v)
				}
				p.Sleep(50 * time.Millisecond)
				if got := r.mods[3].Stats().BytesFetched - fetched; got != diffSize {
					t.Errorf("host 3 fetched %d bytes one version behind, want the %d-byte diff", got, diffSize)
				}
				if len(diffReplies) != len(r.mods)-1 {
					t.Errorf("%d of host 3's %d peers answered with a diff", len(diffReplies), len(r.mods)-1)
				}
				for _, n := range diffReplies {
					if n != diffSize {
						t.Errorf("a phase-1 diff reply carried %d bytes, want %d", n, diffSize)
					}
				}
				identical("after a read one version behind")

				// Two versions behind: hosts 2 and 3 lost both installs, so
				// of any two peers that answer host 0's next write, one
				// refuses the diff, and host 0 completes with the image.
				restore(2, t0)
				restore(3, t0)
				pushed = pushed[:0]
				ty.write(p, r.mods[0], elem(7), 3)
				p.Sleep(50 * time.Millisecond)
				if s := r.mods[0].Stats(); s.QuorumDiffPushes != 1 || s.QuorumImagePushes != 1 {
					t.Errorf("host 0 counted %d diff and %d image pushes, want 1 and 1", s.QuorumDiffPushes, s.QuorumImagePushes)
				}
				images := 0
				for _, n := range pushed {
					if n == r.mods[0].meta[pg].used {
						images++
					} else if n != diffSize {
						t.Errorf("a phase-2 body of %d bytes is neither the diff nor the image", n)
					}
				}
				if images != len(r.mods)-1 || len(pushed) != 2*(len(r.mods)-1) {
					t.Errorf("the fallback pushed %d bodies, %d of them images; want the diff then the image to each of %d peers", len(pushed), images, len(r.mods)-1)
				}
				identical("after the image fallback")
				if v := ty.read(p, r.mods[3], elem(7)); v != 3 {
					t.Errorf("host 3 read %d after the fallback, want 3", v)
				}
			})
		})
	}
}

// TestQuorumCheckerOneTagOneImage pins the checker's "one tag, one
// image" rule. After a write every replica holds the same version; the
// Sun and Firefly images differ byte for byte (the value's byte order)
// but are never compared, while a byte flipped in one Sun replica makes
// it disagree with the other.
func TestQuorumCheckerOneTagOneImage(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly}, withPolicy(PolicyQuorum), withPageSize(1024))
	var got []Violation
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32(p, addr, 0x01020304)
		p.Sleep(50 * time.Millisecond)
		r.check.CheckAll("healthy")
		r.check.SetFailHandler(func(v Violation) { got = append(got, v) })
		pg := r.mods[2].PageOf(addr)
		b := &r.mods[2].engine.(*quorumEngine).qrmPageFor(pg).data[int(addr)-int(pg)*r.cfg.PageSize]
		*b ^= 0xff
		r.check.CheckAll("corrupted")
		*b ^= 0xff
	})
	if len(got) != 1 || !strings.Contains(got[0].Msg, "hosts 0 and 2 hold different images") {
		t.Fatalf("a corrupted replica was reported as %v, want one disagreement of hosts 0 and 2", got)
	}
}

// TestQuorumReadAsksAgainWhenItsDiffBaseMoves drives the one case a
// phase-1 diff cannot be installed: host 0, one version behind, gets
// the newer version as a diff from its own version, and while it
// converts that diff a concurrent install moves its replica to a
// version between the two. It must ask again from there — the second
// round brings the image — and return the newer version. A page of
// float64s makes the diff's conversion take about 28 ms; host 2
// answers 40 ms late and, on the read's first round, performs the
// concurrent install, which lands inside that conversion (delays of 30
// to 55 ms all do).
func TestQuorumReadAsksAgainWhenItsDiffBaseMoves(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyQuorum))
	const n = 1024
	var pg PageNo
	var asked []bool // per phase-1 reply host 1 sent host 0: whether it carried the diff
	host1 := r.mods[1].engine.(*quorumEngine)
	r.mods[1].ep.HandleEvent(proto.KindQuorumRead, remoteop.EventHandler{
		Charge: host1.quorumReadCharge,
		Reply: func(req *proto.Message) *proto.Message {
			reply := host1.handleQuorumRead(req)
			if req.From == 0 {
				asked = append(asked, reply.Arg(2) == quorumDiffBody)
			}
			return reply
		},
	})
	between := quorumTag{ts: 2, host: 0} // above host 0's write, below host 1's
	armed, moved := false, false
	host2 := r.mods[2].engine.(*quorumEngine)
	r.mods[2].ep.HandleEvent(proto.KindQuorumRead, remoteop.EventHandler{
		Charge: func(req *proto.Message) (*sim.Resource, sim.Duration, bool) {
			res, d, ok := host2.quorumReadCharge(req)
			return res, d + 40*time.Millisecond, ok
		},
		Reply: func(req *proto.Message) *proto.Message {
			if req.From == 0 && armed {
				armed, moved = false, true
				qp := r.mods[0].engine.(*quorumEngine).qrmPageFor(pg)
				qp.unshare(0)
				conv.PutFloat64s(r.mods[0].arch, qp.data[:8*n], make([]float64, n))
				qp.setVersion(between, quorumTag{}, nil)
			}
			return host2.handleQuorumRead(req)
		},
	})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Float64, n)
		if err != nil {
			t.Error(err)
			return
		}
		pg = r.mods[0].PageOf(addr)
		fill := func(v float64) []float64 {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = v
			}
			return vs
		}
		r.mods[0].WriteFloat64s(p, addr, fill(1.5))
		p.Sleep(100 * time.Millisecond)
		behind := r.mods[0].engine.(*quorumEngine).qrmPageFor(pg)
		old, oldTag := append([]byte(nil), behind.data...), behind.tag
		r.mods[1].WriteFloat64s(p, addr, fill(2.5))
		p.Sleep(100 * time.Millisecond)
		behind.unshare(0)
		copy(behind.data, old)
		behind.setVersion(oldTag, quorumTag{}, nil)

		asked, armed = asked[:0], true
		conversions := r.mods[0].Stats().Conversions
		var v [1]float64
		r.mods[0].ReadFloat64s(p, addr+8*(n-1), v[:])
		if v[0] != 2.5 {
			t.Errorf("host 0 read %v, want host 1's 2.5", v[0])
		}
		if got := r.mods[0].Stats().Conversions - conversions; got != 2 {
			t.Errorf("host 0 converted %d bodies, want 2: the diff the concurrent install overtook, then the image", got)
		}
		if !moved || len(asked) != 2 || !asked[0] || asked[1] {
			t.Errorf("host 1 answered host 0 with diff bodies %v (moved %v), want a diff, then the image once host 0 had moved", asked, moved)
		}
		if tag := behind.tag; tag != host1.qrmPageFor(pg).tag {
			t.Errorf("host 0 ended at %v, host 1 at %v", tag, host1.qrmPageFor(pg).tag)
		}
	})
}
