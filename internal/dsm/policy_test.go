package dsm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

func withPolicy(pol Policy) rigOpt {
	return func(c *Config) { c.Policy = pol }
}

// unhandled sums the requests the rig's endpoints dropped on arrival
// because no engine, directory or module of this configuration
// registered a handler for their kind.
func (r *rig) unhandled() int {
	n := 0
	for _, m := range r.mods {
		n += m.ep.Stats().Unhandled
	}
	return n
}

// policyRoundTrip checks basic cross-architecture correctness under a
// given coherence policy and directory scheme — including that every
// kind the configuration sent was served in it. Writers and readers are
// bracketed with the engine's release/acquire hooks where it declares
// any (lazy release); every other engine propagates at access time and
// the brackets are no-ops.
func policyRoundTrip(t *testing.T, pol Policy, dir Directory) {
	t.Helper()
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(pol), withDirectory(dir))
	r.run("main", func(p *sim.Proc) {
		release := func(m *Module) []byte {
			if m.SyncModel() == nil {
				return nil
			}
			payload, err := m.SyncModel().ReleasePayload(p)
			if err != nil {
				t.Fatalf("%v/%v: release: %v", pol, dir, err)
			}
			return payload
		}
		acquire := func(m *Module, payload []byte) {
			if m.SyncModel() == nil {
				return
			}
			if err := m.SyncModel().AcquirePayload(p, payload); err != nil {
				t.Fatalf("%v/%v: acquire: %v", pol, dir, err)
			}
		}
		ints, err := r.mods[0].Alloc(p, conv.Int32, 300)
		if err != nil {
			t.Error(err)
			return
		}
		doubles, err := r.mods[0].Alloc(p, conv.Float64, 50)
		if err != nil {
			t.Error(err)
			return
		}
		vals := make([]int32, 300)
		for i := range vals {
			vals[i] = int32(i*7 - 1000)
		}
		dv := []float64{3.14159, -2.5, 1e100, 0, 42}
		r.mods[0].WriteInt32s(p, ints, vals)
		r.mods[0].WriteFloat64s(p, doubles, dv)
		payload := release(r.mods[0])

		for h := 1; h <= 2; h++ {
			acquire(r.mods[h], payload)
			got := make([]int32, 300)
			r.mods[h].ReadInt32s(p, ints, got)
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%v/%v: host %d int[%d] = %d, want %d", pol, dir, h, i, got[i], vals[i])
				}
			}
			gd := make([]float64, 5)
			r.mods[h].ReadFloat64s(p, doubles, gd)
			for i := range dv {
				if gd[i] != dv[i] {
					t.Fatalf("%v/%v: host %d double[%d] = %v, want %v", pol, dir, h, i, gd[i], dv[i])
				}
			}
		}
		// Cross-host update visible everywhere.
		r.mods[1].WriteInt32s(p, ints, []int32{-9})
		acquire(r.mods[2], release(r.mods[1]))
		var v [1]int32
		r.mods[2].ReadInt32s(p, ints, v[:])
		if v[0] != -9 {
			t.Fatalf("%v/%v: update not visible: %d", pol, dir, v[0])
		}
	})
	if n := r.unhandled(); n != 0 {
		t.Errorf("%v/%v: %d request(s) dropped for want of a handler", pol, dir, n)
	}
}

// TestPolicyDirectoryMatrix walks every engine × directory cell: a cell
// validatePolicy accepts must build, allocate, round-trip typed data
// across the Sun↔Firefly boundary and pass the teardown audit with the
// invariants and pages its engine and directory declared; a rejected
// cell must fail at Config validation, before any module exists.
func TestPolicyDirectoryMatrix(t *testing.T) {
	params := model.Default()
	for pol := PolicyMRSW; pol <= PolicyRC; pol++ {
		for _, dir := range []Directory{DirFixed, DirCentral, DirDynamic} {
			t.Run(fmt.Sprintf("%v/%v", pol, dir), func(t *testing.T) {
				if dir == DirDynamic && pol != PolicyMRSW {
					cfg := Config{PageSize: 8192, SpaceSize: 1 << 20, Registry: conv.NewRegistry(), Params: &params, Policy: pol, Directory: dir}
					if err := cfg.Validate(); err == nil {
						t.Fatal("cell accepted; the dynamic directory is only defined for MRSW")
					}
					return
				}
				policyRoundTrip(t, pol, dir)
			})
		}
	}
}

// TestUnservedKindIsDropped pins what engine-owned handler registration
// provides: a request of a kind no engine of this cluster serves
// vanishes at the receiver — no handler runs, its state does not move,
// nothing panics — and the caller gets its timeout. The drop is counted
// once: the retransmissions are absorbed as duplicates.
func TestUnservedKindIsDropped(t *testing.T) {
	cases := []struct {
		pol  Policy
		kind proto.Kind
	}{
		{PolicyMRSW, proto.KindRemoteRead},
		{PolicyCentral, proto.KindQuorumWrite},
		{PolicyRC, proto.KindUpdateWrite},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v<-%v", c.pol, c.kind), func(t *testing.T) {
			r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPolicy(c.pol))
			r.run("main", func(p *sim.Proc) {
				addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
				if err != nil {
					t.Error(err)
					return
				}
				r.mods[1].WriteInt32s(p, addr, []int32{7})
				before := fnv.New64a()
				r.mods[1].WriteStateHash(before)
				_, err = r.mods[0].ep.Call(p, 1, &proto.Message{
					Kind: c.kind,
					Page: uint32(r.mods[0].PageOf(addr)),
					Args: []uint32{0, 4},
					Data: []byte{1, 2, 3, 4},
				})
				if !errors.Is(err, remoteop.ErrTimeout) {
					t.Errorf("call of an unserved kind: err = %v, want a timeout", err)
				}
				after := fnv.New64a()
				r.mods[1].WriteStateHash(after)
				if before.Sum64() != after.Sum64() {
					t.Error("receiver's state moved on a request it does not serve")
				}
			})
			if n := r.unhandled(); n != 1 {
				t.Errorf("Unhandled = %d across the cluster, want exactly the one dropped request", n)
			}
		})
	}
}

func TestMigrationPolicyRoundTrip(t *testing.T) { policyRoundTrip(t, PolicyMigration, DirFixed) }
func TestCentralPolicyRoundTrip(t *testing.T)   { policyRoundTrip(t, PolicyCentral, DirFixed) }

func TestMigrationPolicyKeepsSingleCopy(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyMigration))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		pg := r.mods[0].PageOf(addr)
		r.mods[0].WriteInt32s(p, addr, []int32{5})
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:]) // even a READ migrates the only copy
		if r.mods[1].Access(pg) != WriteAccess {
			t.Errorf("reader's access %v, want exclusive (migration policy)", r.mods[1].Access(pg))
		}
		if r.mods[0].Access(pg) != NoAccess {
			t.Errorf("origin still holds the page (%v); copy not migrated", r.mods[0].Access(pg))
		}
		r.mods[2].ReadInt32s(p, addr, v[:])
		if v[0] != 5 {
			t.Errorf("value %d, want 5", v[0])
		}
		if r.mods[1].Access(pg) != NoAccess || r.mods[2].Access(pg) != WriteAccess {
			t.Error("single-copy invariant violated after second read")
		}
	})
}

func TestCentralPolicyNeverCachesPages(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPolicy(PolicyCentral))
	r.run("main", func(p *sim.Proc) {
		// Page 1 is managed (served) by host 1; host 0 accesses it.
		var addr Addr
		for {
			a, err := r.mods[0].Alloc(p, conv.Int32, 2048)
			if err != nil {
				t.Error(err)
				return
			}
			if r.mods[0].manager(r.mods[0].PageOf(a)) == 1 {
				addr = a
				break
			}
		}
		r.mods[0].WriteInt32s(p, addr, []int32{11})
		var v [1]int32
		r.mods[0].ReadInt32s(p, addr, v[:])
		if v[0] != 11 {
			t.Fatalf("read back %d, want 11", v[0])
		}
		s := r.mods[0].Stats()
		if s.RemoteReads == 0 || s.RemoteWrites == 0 {
			t.Errorf("no remote ops recorded: %+v", s)
		}
		if s.PagesFetched != 0 || s.ReadFaults != 0 || s.WriteFaults != 0 {
			t.Errorf("central policy moved pages or faulted: %+v", s)
		}
		if r.mods[0].Access(r.mods[0].PageOf(addr)) != NoAccess {
			t.Error("client cached a page under the central policy")
		}
	})
}

func TestCentralPolicyConvertsPerRequest(t *testing.T) {
	// Server on a Sun page, client a Firefly: values must convert both
	// directions per request.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPolicy(PolicyCentral))
	r.run("main", func(p *sim.Proc) {
		var addr Addr
		for {
			a, err := r.mods[0].Alloc(p, conv.Int32, 2048)
			if err != nil {
				t.Error(err)
				return
			}
			if r.mods[0].manager(r.mods[0].PageOf(a)) == 0 { // Sun serves
				addr = a
				break
			}
		}
		r.mods[1].WriteInt32s(p, addr, []int32{0x01020304}) // Firefly writes
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		if v[0] != 0x01020304 {
			t.Fatalf("firefly read back %#x", v[0])
		}
		var sv [1]int32
		r.mods[0].ReadInt32s(p, addr, sv[:]) // Sun (server) reads locally
		if sv[0] != 0x01020304 {
			t.Fatalf("sun read %#x; server-side representation wrong", sv[0])
		}
	})
}

func TestCentralPolicyAtomicSwap(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyCentral))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 1)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{3})
		if old := r.mods[1].AtomicSwapInt32(p, addr, 8); old != 3 {
			t.Errorf("swap returned %d, want 3", old)
		}
		if old := r.mods[2].AtomicSwapInt32(p, addr, 0); old != 8 {
			t.Errorf("second swap returned %d, want 8", old)
		}
	})
}

func TestCentralPolicyPointers(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPolicy(PolicyCentral))
	r.run("main", func(p *sim.Proc) {
		ptrs, err := r.mods[0].Alloc(p, conv.Pointer, 4)
		if err != nil {
			t.Error(err)
			return
		}
		ints, err := r.mods[0].Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WritePointer(p, ptrs, ints, true)
		got, ok := r.mods[1].ReadPointer(p, ptrs)
		if !ok || got != ints {
			t.Errorf("pointer via central server: %v ok=%v, want %v", got, ok, ints)
		}
	})
}

func TestUpdatePolicyRoundTrip(t *testing.T) { policyRoundTrip(t, PolicyUpdate, DirFixed) }

func TestUpdatePolicyKeepsReplicasAlive(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyUpdate))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 64)
		if err != nil {
			t.Error(err)
			return
		}
		pg := r.mods[0].PageOf(addr)
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		r.mods[2].ReadInt32s(p, addr, v[:])
		fetchedBefore := r.mods[1].Stats().PagesFetched + r.mods[2].Stats().PagesFetched

		// A write must update, not invalidate: replicas stay readable
		// with the new value and no page is re-fetched.
		r.mods[2].WriteInt32s(p, addr, []int32{0x01020304})
		if r.mods[1].Access(pg) != ReadAccess {
			t.Fatalf("reader's replica torn down: %v", r.mods[1].Access(pg))
		}
		r.mods[1].ReadInt32s(p, addr, v[:])
		if v[0] != 0x01020304 {
			t.Fatalf("replica read %#x after update, want 0x01020304 (converted)", v[0])
		}
		fetchedAfter := r.mods[1].Stats().PagesFetched + r.mods[2].Stats().PagesFetched
		if fetchedAfter != fetchedBefore {
			t.Fatalf("update policy re-fetched pages (%d → %d)", fetchedBefore, fetchedAfter)
		}
		if r.mods[1].Stats().UpdatesApplied == 0 {
			t.Fatal("no update applied at the replica holder")
		}
	})
}

func TestUpdatePolicySequencesConcurrentWriters(t *testing.T) {
	// Two hosts interleave updates to disjoint words of one page; every
	// final value must be the last write to its word on every replica.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withPolicy(PolicyUpdate))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		done := sim.NewSemaphore(r.k, 0)
		for w := 1; w <= 2; w++ {
			w := w
			mod := r.mods[w]
			r.k.Spawn(fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
				for i := 0; i < 10; i++ {
					mod.WriteInt32s(wp, addr+Addr(4*w), []int32{int32(w*100 + i)})
					wp.Sleep(5 * time.Millisecond)
				}
				done.V()
			})
		}
		done.P(p)
		done.P(p)
		for h := 0; h < 3; h++ {
			var v [3]int32
			r.mods[h].ReadInt32s(p, addr, v[:])
			if v[1] != 109 || v[2] != 209 {
				t.Fatalf("host %d sees %v, want [_, 109, 209]", h, v)
			}
		}
	})
}

// TestAtomicSwapWithoutAtomics: the policies that define no atomic
// operation refuse one. AtomicSwapInt32E returns ErrNoAtomics naming
// the policy, and AtomicSwapInt32 panics with it through mustOK.
func TestAtomicSwapWithoutAtomics(t *testing.T) {
	for _, tc := range []struct {
		pol  Policy
		opts []rigOpt
	}{
		{PolicyUpdate, nil},
		{PolicyQuorum, nil},
		{PolicyRC, []rigOpt{withDirectory(DirCentral)}},
	} {
		t.Run(tc.pol.String(), func(t *testing.T) {
			r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun}, append(tc.opts, withPolicy(tc.pol))...)
			r.run("main", func(p *sim.Proc) {
				addr, err := r.mods[0].Alloc(p, conv.Int32, 1)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = r.mods[0].AtomicSwapInt32E(p, addr, 1)
				want := fmt.Sprintf("%v (policy %s)", ErrNoAtomics, tc.pol)
				if !errors.Is(err, ErrNoAtomics) || err.Error() != want {
					t.Errorf("AtomicSwapInt32E error %v, want %q", err, want)
				}
				defer func() {
					got, _ := recover().(error)
					if want := "dsm: host 0: " + want; !errors.Is(got, ErrNoAtomics) || got.Error() != want {
						t.Errorf("AtomicSwapInt32 panicked with %v, want %q", got, want)
					}
				}()
				r.mods[0].AtomicSwapInt32(p, addr, 1)
			})
		})
	}
}
