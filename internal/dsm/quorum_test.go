package dsm

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/proto"
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

func TestQuorumAtomicSwapPanics(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun}, withPolicy(PolicyQuorum))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 1)
		if err != nil {
			t.Error(err)
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("atomic swap under the quorum policy did not panic")
			}
		}()
		r.mods[0].AtomicSwapInt32(p, addr, 1)
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
// replicas. Host 1 answers host 0's read with its replica's own image,
// which its reply cache keeps; each case then changes that replica one
// way and re-delivers host 0's request as a duplicate. The resend must
// carry the bytes first sent — the reply cache's resend check panics
// otherwise — so each of the three unshare calls is load-bearing here.
func TestQuorumReplicaCopyOnWrite(t *testing.T) {
	cases := []struct {
		name   string
		change func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo)
	}{
		{"local write", func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			r.mods[1].WriteInt32(p, addr, 2)
		}},
		{"phase-1 install", func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			// Hosts 0 and 2 hold a newer version host 1 has not seen: its
			// next read installs it from whichever answers first.
			for _, h := range []int{0, 2} {
				qp := r.mods[h].engine.(*quorumEngine).qrmPageFor(pg)
				qp.unshare(0)
				conv.PutInt32(r.mods[h].arch, qp.data[int(addr)-int(pg)*r.cfg.PageSize:], 2)
				qp.tag = quorumTag{ts: 10, host: 2}
			}
			if v := r.mods[1].ReadInt32(p, addr); v != 2 {
				t.Errorf("host 1 read %d, want the newer 2", v)
			}
		}},
		{"phase-2 install", func(t *testing.T, r *rig, p *sim.Proc, addr Addr, pg PageNo) {
			r.mods[2].WriteInt32(p, addr, 2)
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
				r.mods[0].WriteInt32(p, addr, 1)
				p.Sleep(50 * time.Millisecond)
				host1 := r.mods[1].engine.(*quorumEngine)
				r.mods[1].ep.Handle(proto.KindQuorumRead, func(p *sim.Proc, req *proto.Message) {
					if req.From == 0 {
						read = req
					}
					host1.handleQuorumRead(p, req)
				})
				if v := r.mods[0].ReadInt32(p, addr); v != 1 {
					t.Fatalf("host 0 read %d, want 1", v)
				}
				p.Sleep(50 * time.Millisecond)
				qp := host1.qrmPageFor(pg)
				if read == nil || !qp.shared {
					t.Fatal("host 1's read reply does not hold its replica")
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
