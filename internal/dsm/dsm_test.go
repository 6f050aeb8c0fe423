package dsm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/remoteop"
	"repro/internal/sim"
)

// rig wires a kernel, network, endpoints and DSM modules for a cluster.
type rig struct {
	k     *sim.Kernel
	cfg   *Config
	net   *netsim.Network
	mods  []*Module
	check *InvariantChecker
}

type rigOpt func(*Config)

func withPageSize(n int) rigOpt      { return func(c *Config) { c.PageSize = n } }
func withoutConversion() rigOpt      { return func(c *Config) { c.Mutation = MutSkipConversion } }
func withSameKindPreference() rigOpt { return func(c *Config) { c.PreferSameKindSource = true } }
func withRegistry(r *conv.Registry) rigOpt {
	return func(c *Config) { c.Registry = r }
}

func newRig(t *testing.T, kinds []arch.Kind, opts ...rigOpt) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	params := model.Default()
	cfg := &Config{
		PageSize:  8192,
		SpaceSize: 1 << 20,
		Registry:  conv.NewRegistry(),
		Params:    &params,
	}
	for _, o := range opts {
		o(cfg)
	}
	net := netsim.New(k, &params)
	r := &rig{k: k, cfg: cfg, net: net}
	hosts := make([]arch.Arch, len(kinds))
	for i, kd := range kinds {
		a, err := arch.ByKind(kd)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = a
	}
	for i := range kinds {
		ifc, err := net.Attach(netsim.HostID(i))
		if err != nil {
			t.Fatal(err)
		}
		ep := remoteop.New(k, ifc, kinds[i], &params)
		mod, err := New(k, ep, cfg, hosts)
		if err != nil {
			t.Fatal(err)
		}
		ep.Start()
		r.mods = append(r.mods, mod)
	}
	// Every rig-based test runs under the protocol invariant checker; a
	// violation anywhere in the protocol fails the test that drove it.
	r.check = AttachChecker(r.mods...)
	r.check.SetFailHandler(func(v Violation) { t.Error(v) })
	return r
}

// run executes fn as a simulated process, drains the kernel, then
// audits every page's invariants in the final quiescent state.
func (r *rig) run(name string, fn func(p *sim.Proc)) {
	r.k.Spawn(name, fn)
	r.k.Run()
	r.check.CheckAll("teardown")
}

func TestAllocAndLocalReadWrite(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 100)
		if err != nil {
			t.Error(err)
			return
		}
		want := make([]int32, 100)
		for i := range want {
			want[i] = int32(i*i - 50)
		}
		r.mods[0].WriteInt32s(p, addr, want)
		got := make([]int32, 100)
		r.mods[0].ReadInt32s(p, addr, got)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("element %d = %d, want %d", i, got[i], want[i])
				return
			}
		}
	})
}

func TestRemoteAllocGoesThroughManager(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		a1, err := r.mods[1].Alloc(p, conv.Int32, 10)
		if err != nil {
			t.Error(err)
			return
		}
		a2, err := r.mods[0].Alloc(p, conv.Int32, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if a1 == a2 {
			t.Errorf("overlapping allocations at %d", a1)
		}
		// Both hosts must know the metadata.
		if _, ok := r.mods[1].metaFor(r.mods[1].PageOf(a2)); !ok {
			t.Error("host 1 missing metadata for host 0's allocation")
		}
	})
}

func TestOneTypePerPage(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun})
	r.run("main", func(p *sim.Proc) {
		aInt, err := r.mods[0].Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		aFlt, err := r.mods[0].Alloc(p, conv.Float32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if r.mods[0].PageOf(aInt) == r.mods[0].PageOf(aFlt) {
			t.Error("int and float allocations share a page")
		}
		// Same type continues filling the same page.
		aInt2, err := r.mods[0].Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if r.mods[0].PageOf(aInt) != r.mods[0].PageOf(aInt2) {
			t.Error("same-type allocations did not pack into one page")
		}
		if aInt2 != aInt+16 {
			t.Errorf("second int allocation at %d, want %d", aInt2, aInt+16)
		}
	})
}

func TestHeterogeneousMigrationConvertsIntegers(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 256)
		if err != nil {
			t.Error(err)
			return
		}
		want := make([]int32, 256)
		for i := range want {
			want[i] = int32(0x01020304 * (i + 1))
		}
		r.mods[0].WriteInt32s(p, addr, want) // Sun writes big-endian
		got := make([]int32, 256)
		r.mods[1].ReadInt32s(p, addr, got) // Firefly reads after migration
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("firefly read [%d] = %#x, want %#x", i, got[i], want[i])
				return
			}
		}
		if r.mods[1].Stats().Conversions == 0 {
			t.Error("no conversion recorded for Sun→Firefly transfer")
		}
	})
}

func TestConversionDisabledCorruptsData(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withoutConversion())
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 8)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{0x01020304, 0, 0, 0, 0, 0, 0, 0})
		got := make([]int32, 1)
		r.mods[1].ReadInt32s(p, addr, got)
		if got[0] == 0x01020304 {
			t.Error("value survived unconverted cross-architecture transfer; heterogeneity unmodelled")
		}
	})
}

func TestFloatsSurviveIEEEVaxMigration(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Float64, 16)
		if err != nil {
			t.Error(err)
			return
		}
		want := []float64{3.141592653589793, -2.718281828459045, 1e100, -1e-100,
			0, 42.5, 6.02214076e23, -0.1, 7, 8, 9, 10, 11, 12, 13, 14}
		r.mods[0].WriteFloat64s(p, addr, want)
		got := make([]float64, 16)
		r.mods[1].ReadFloat64s(p, addr, got)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("double [%d] = %v on firefly, want %v", i, got[i], want[i])
			}
		}
		// And back to a second Sun read via migration to host 0.
		r.mods[1].WriteFloat64s(p, addr, got) // firefly takes ownership
		back := make([]float64, 16)
		r.mods[0].ReadFloat64s(p, addr, back)
		for i := range want {
			if back[i] != want[i] {
				t.Errorf("double [%d] = %v back on sun, want %v", i, back[i], want[i])
			}
		}
	})
}

func TestMRSWInvariantAndInvalidation(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		pg := r.mods[0].PageOf(addr)
		// Two hosts read: replicas on both.
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		r.mods[2].ReadInt32s(p, addr, v[:])
		if r.mods[1].Access(pg) != ReadAccess || r.mods[2].Access(pg) != ReadAccess {
			t.Errorf("read replicas missing: %v %v", r.mods[1].Access(pg), r.mods[2].Access(pg))
		}
		// Host 1 writes: host 2's replica must be invalidated.
		r.mods[1].WriteInt32s(p, addr, []int32{7})
		if r.mods[1].Access(pg) != WriteAccess {
			t.Errorf("writer access %v, want write", r.mods[1].Access(pg))
		}
		if r.mods[2].Access(pg) != NoAccess {
			t.Errorf("stale replica survived a write: %v", r.mods[2].Access(pg))
		}
		// Reader sees the new value.
		r.mods[2].ReadInt32s(p, addr, v[:])
		if v[0] != 7 {
			t.Errorf("reader got %d, want 7", v[0])
		}
	})
}

func TestWriteUpgradeWithoutTransfer(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 16)
		if err != nil {
			t.Error(err)
			return
		}
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:]) // replica on host 1
		fetchedBefore := r.mods[1].Stats().PagesFetched
		r.mods[1].WriteInt32s(p, addr, []int32{5}) // upgrade in place
		s := r.mods[1].Stats()
		if s.PagesFetched != fetchedBefore {
			t.Error("upgrade transferred the page body needlessly")
		}
		if s.Upgrades == 0 {
			t.Error("upgrade not recorded")
		}
	})
}

func TestOnlyAllocatedPrefixIsTransferred(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun})
	r.run("main", func(p *sim.Proc) {
		// 10 ints = 40 bytes in an 8 KB page.
		addr, err := r.mods[0].Alloc(p, conv.Int32, 10)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, make([]int32, 10))
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		if got := r.mods[1].Stats().BytesFetched; got != 40 {
			t.Errorf("fetched %d bytes, want 40 (allocated prefix only)", got)
		}
	})
}

func TestPointerRebasingAcrossKinds(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
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
		r.mods[0].WritePointer(p, ptrs+4, 0, false) // null
		// Read on the Firefly: page converts, pointers rebase.
		got, ok := r.mods[1].ReadPointer(p, ptrs)
		if !ok || got != ints {
			t.Errorf("pointer read %v ok=%v, want %v", got, ok, ints)
		}
		if _, ok := r.mods[1].ReadPointer(p, ptrs+4); ok {
			t.Error("null pointer read as valid")
		}
	})
}

func TestSmallestPageAlgorithmSunGroupFault(t *testing.T) {
	// 1 KB DSM pages: one Sun VM fault fetches all 8 sub-pages.
	r := newRig(t, []arch.Kind{arch.Firefly, arch.Sun}, withPageSize(1024))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 4096) // 16 KB = 16 pages
		if err != nil {
			t.Error(err)
			return
		}
		vals := make([]int32, 4096)
		for i := range vals {
			vals[i] = int32(i)
		}
		r.mods[0].WriteInt32s(p, addr, vals)
		// The Sun reads one int: it must fault once and fetch 8 pages.
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		if v[0] != 0 {
			t.Errorf("read %d, want 0", v[0])
		}
		s := r.mods[1].Stats()
		if s.ReadFaults != 1 {
			t.Errorf("%d read faults, want 1 (one VM fault)", s.ReadFaults)
		}
		if s.PagesFetched != 8 {
			t.Errorf("%d DSM pages fetched, want 8 (the whole VM page)", s.PagesFetched)
		}
		// Reading another int in the same VM page costs nothing more.
		r.mods[1].ReadInt32s(p, addr+4, v[:])
		if got := r.mods[1].Stats().ReadFaults; got != 1 {
			t.Errorf("second read in the VM page faulted (%d faults)", got)
		}
	})
}

func TestSmallestPageFireflyFetchesOnePage(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withPageSize(1024))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, make([]int32, 4096))
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:])
		if got := r.mods[1].Stats().PagesFetched; got != 1 {
			t.Errorf("firefly fetched %d pages, want 1", got)
		}
	})
}

func TestPreferSameKindSourceAvoidsConversion(t *testing.T) {
	// Owner is a Sun; a Firefly already holds a read copy; a second
	// Firefly reads — the copy must come from the Firefly holder.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, withSameKindPreference())
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 64)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{123})
		var v [1]int32
		r.mods[1].ReadInt32s(p, addr, v[:]) // Firefly 1 now holds a converted copy
		served1 := r.mods[1].Stats().PagesServed
		r.mods[2].ReadInt32s(p, addr, v[:]) // Firefly 2 should be served by Firefly 1
		if v[0] != 123 {
			t.Errorf("read %d, want 123", v[0])
		}
		if r.mods[1].Stats().PagesServed != served1+1 {
			t.Error("same-kind holder did not serve the second read")
		}
		if r.mods[2].Stats().Conversions != 0 {
			t.Error("second firefly converted despite same-kind source")
		}
	})
}

func TestPreferSameKindSourcePicksLowestHolder(t *testing.T) {
	// Two Fireflies hold read copies, the higher-numbered one first; a
	// third Firefly's read must be served by the lower host — the choice
	// is by host order, never by map or arrival order.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly, arch.Firefly}, withSameKindPreference())
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 64)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{123})
		var v [1]int32
		r.mods[2].ReadInt32s(p, addr, v[:])
		r.mods[1].ReadInt32s(p, addr, v[:])
		served1, served2 := r.mods[1].Stats().PagesServed, r.mods[2].Stats().PagesServed
		r.mods[3].ReadInt32s(p, addr, v[:])
		if v[0] != 123 {
			t.Errorf("read %d, want 123", v[0])
		}
		if got1, got2 := r.mods[1].Stats().PagesServed, r.mods[2].Stats().PagesServed; got1 != served1+1 || got2 != served2 {
			t.Errorf("host 1 served %d→%d, host 2 %d→%d; want the lower same-kind holder (host 1) to serve",
				served1, got1, served2, got2)
		}
	})
}

func TestSequentialConsistencyPingPong(t *testing.T) {
	// Two hosts alternately increment a shared counter via semantically
	// racy but protocol-serialized writes; every increment must land.
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	const rounds = 20
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 1)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteInt32s(p, addr, []int32{0})
		done := sim.NewSemaphore(r.k, 0)
		for h := 0; h < 2; h++ {
			mod := r.mods[h]
			r.k.Spawn(fmt.Sprintf("writer%d", h), func(wp *sim.Proc) {
				for i := 0; i < rounds; i++ {
					var v [1]int32
					mod.ReadInt32s(wp, addr, v[:])
					// Read-modify-write without holding a lock across
					// the two ops: the final count may drop updates,
					// but a single WriteInt32s burst is atomic. To test
					// protocol serialization we instead write disjoint
					// slots below; here we just hammer the page.
					mod.WriteInt32s(wp, addr, []int32{v[0] + 1})
				}
				done.V()
			})
		}
		done.P(p)
		done.P(p)
		var final [1]int32
		r.mods[0].ReadInt32s(p, addr, final[:])
		if final[0] < rounds || final[0] > 2*rounds {
			t.Errorf("final counter %d outside [%d,%d]", final[0], rounds, 2*rounds)
		}
	})
}

func TestConcurrentDisjointWritersAllLand(t *testing.T) {
	// Each host writes its own slots of a shared page under contention;
	// after a barrier, every write must be visible everywhere.
	kinds := []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly, arch.Sun}
	r := newRig(t, kinds)
	const perHost = 8
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, perHost*len(kinds))
		if err != nil {
			t.Error(err)
			return
		}
		done := sim.NewSemaphore(r.k, 0)
		for h := range kinds {
			h := h
			mod := r.mods[h]
			r.k.Spawn(fmt.Sprintf("w%d", h), func(wp *sim.Proc) {
				for i := 0; i < perHost; i++ {
					slot := Addr(4 * (h*perHost + i))
					mod.WriteInt32s(wp, addr+slot, []int32{int32(h*1000 + i)})
				}
				done.V()
			})
		}
		for range kinds {
			done.P(p)
		}
		got := make([]int32, perHost*len(kinds))
		r.mods[0].ReadInt32s(p, addr, got)
		for h := range kinds {
			for i := 0; i < perHost; i++ {
				if got[h*perHost+i] != int32(h*1000+i) {
					t.Errorf("slot [%d][%d] = %d, want %d", h, i, got[h*perHost+i], h*1000+i)
				}
			}
		}
	})
}

// misuseCall runs one accessor form on n bytes at a: id is the struct
// forms' type, size the element size.
type misuseCall func(m *Module, p *sim.Proc, a Addr, id conv.TypeID, n, size int) error

// sliceForms adapts a slice accessor's E form and its plain twin to
// misuseCall (the plain one returns no error of its own).
func sliceForms[T any](e func(*Module, *sim.Proc, Addr, []T) error, plain func(*Module, *sim.Proc, Addr, []T)) [2]misuseCall {
	return [2]misuseCall{
		func(m *Module, p *sim.Proc, a Addr, _ conv.TypeID, n, size int) error {
			return e(m, p, a, make([]T, n/size))
		},
		func(m *Module, p *sim.Proc, a Addr, _ conv.TypeID, n, size int) error {
			plain(m, p, a, make([]T, n/size))
			return nil
		},
	}
}

// structForms adapts a struct accessor pair to misuseCall.
func structForms(e func(*Module, *sim.Proc, Addr, conv.TypeID, []byte) error, plain func(*Module, *sim.Proc, Addr, conv.TypeID, []byte)) [2]misuseCall {
	return [2]misuseCall{
		func(m *Module, p *sim.Proc, a Addr, id conv.TypeID, n, _ int) error {
			return e(m, p, a, id, make([]byte, n))
		},
		func(m *Module, p *sim.Proc, a Addr, id conv.TypeID, n, _ int) error {
			plain(m, p, a, id, make([]byte, n))
			return nil
		},
	}
}

// oneForms adapts a single-element accessor pair to misuseCall.
func oneForms(e func(*Module, *sim.Proc, Addr) error, plain func(*Module, *sim.Proc, Addr)) [2]misuseCall {
	return [2]misuseCall{
		func(m *Module, p *sim.Proc, a Addr, _ conv.TypeID, _, _ int) error { return e(m, p, a) },
		func(m *Module, p *sim.Proc, a Addr, _ conv.TypeID, _, _ int) error {
			plain(m, p, a)
			return nil
		},
	}
}

// TestAccessorMisuse holds every E accessor to the failure contract on
// each misuse that applies to it: an error and no panic, and the plain
// twin panics with that error behind the "dsm: host N: " prefix.
func TestAccessorMisuse(t *testing.T) {
	// The struct type under test is typ 0.
	accessors := []struct {
		name  string
		typ   conv.TypeID
		forms [2]misuseCall // E, plain
	}{
		{"ReadBytesE", conv.Char, sliceForms((*Module).ReadBytesE, (*Module).ReadBytes)},
		{"WriteBytesE", conv.Char, sliceForms((*Module).WriteBytesE, (*Module).WriteBytes)},
		{"ReadInt32E", conv.Int32, oneForms(func(m *Module, p *sim.Proc, a Addr) error {
			_, err := m.ReadInt32E(p, a)
			return err
		}, func(m *Module, p *sim.Proc, a Addr) { m.ReadInt32(p, a) })},
		{"WriteInt32E", conv.Int32, oneForms(func(m *Module, p *sim.Proc, a Addr) error { return m.WriteInt32E(p, a, 1) },
			func(m *Module, p *sim.Proc, a Addr) { m.WriteInt32(p, a, 1) })},
		{"ReadInt32sE", conv.Int32, sliceForms((*Module).ReadInt32sE, (*Module).ReadInt32s)},
		{"WriteInt32sE", conv.Int32, sliceForms((*Module).WriteInt32sE, (*Module).WriteInt32s)},
		{"ReadInt16sE", conv.Int16, sliceForms((*Module).ReadInt16sE, (*Module).ReadInt16s)},
		{"WriteInt16sE", conv.Int16, sliceForms((*Module).WriteInt16sE, (*Module).WriteInt16s)},
		{"ReadFloat32sE", conv.Float32, sliceForms((*Module).ReadFloat32sE, (*Module).ReadFloat32s)},
		{"WriteFloat32sE", conv.Float32, sliceForms((*Module).WriteFloat32sE, (*Module).WriteFloat32s)},
		{"ReadFloat64sE", conv.Float64, sliceForms((*Module).ReadFloat64sE, (*Module).ReadFloat64s)},
		{"WriteFloat64sE", conv.Float64, sliceForms((*Module).WriteFloat64sE, (*Module).WriteFloat64s)},
		{"ReadPointerE", conv.Pointer, oneForms(func(m *Module, p *sim.Proc, a Addr) error {
			_, _, err := m.ReadPointerE(p, a)
			return err
		}, func(m *Module, p *sim.Proc, a Addr) { m.ReadPointer(p, a) })},
		{"WritePointerE", conv.Pointer, oneForms(func(m *Module, p *sim.Proc, a Addr) error { return m.WritePointerE(p, a, 0, true) },
			func(m *Module, p *sim.Proc, a Addr) { m.WritePointer(p, a, 0, true) })},
		{"AtomicSwapInt32E", conv.Int32, oneForms(func(m *Module, p *sim.Proc, a Addr) error {
			_, err := m.AtomicSwapInt32E(p, a, 1)
			return err
		}, func(m *Module, p *sim.Proc, a Addr) { m.AtomicSwapInt32(p, a, 1) })},
		{"ReadStructE", 0, structForms((*Module).ReadStructE, (*Module).ReadStruct)},
		{"WriteStructE", 0, structForms((*Module).WriteStructE, (*Module).WriteStruct)},
	}
	const (
		allocated  = 4   // elements allocated of the accessor's type
		spare      = 100 // a page nothing allocates
		unregister = 200 // a type ID nothing registers
	)
	// env is one accessor's setting: its type and element size, its
	// allocation, another type's allocation, a page nothing allocates
	// and the end of the space. A misuse turns it into the address, type
	// and byte count of a call that must fail with an error containing
	// want; it applies to every accessor unless it says otherwise.
	type env struct {
		typ                     conv.TypeID
		size                    int
		base, other, spare, end Addr
	}
	type use struct {
		addr Addr
		id   conv.TypeID
		n    int
	}
	misuses := []struct {
		name, want string
		applies    func(structType bool, size int) bool
		mk         func(e env) use
	}{
		{"wrong-type", "data, accessed as", nil, func(e env) use { return use{e.other, e.typ, 2 * e.size} }},
		{"unallocated-page", "unallocated page", nil, func(e env) use { return use{e.spare, e.typ, 2 * e.size} }},
		{"past-the-space", "beyond space", nil, func(e env) use { return use{e.end, e.typ, 2 * e.size} }},
		{"past-the-allocated-prefix", "allocated bytes of page", nil,
			func(e env) use { return use{e.base + Addr(allocated*e.size), e.typ, 2 * e.size} }},
		{"misaligned-element", "not aligned", func(_ bool, size int) bool { return size > 1 },
			func(e env) use { return use{e.base + 1, e.typ, 2 * e.size} }},
		{"partial-struct-buffer", "not a multiple", func(structType bool, _ int) bool { return structType },
			func(e env) use { return use{e.base, e.typ, e.size + 1} }},
		{"unregistered-struct-type", "not registered", func(structType bool, _ int) bool { return structType },
			func(e env) use { return use{e.base, unregister, 2 * e.size} }},
	}
	for _, acc := range accessors {
		for _, mu := range misuses {
			reg := conv.NewRegistry()
			pair, err := reg.RegisterStruct("pair", []conv.Field{{Type: conv.Int32, Count: 1}, {Type: conv.Int16, Count: 2}})
			if err != nil {
				t.Fatal(err)
			}
			typ := acc.typ
			if typ == 0 {
				typ = pair
			}
			size := reg.MustGet(typ).Size
			if mu.applies != nil && !mu.applies(acc.typ == 0, size) {
				continue
			}
			t.Run(acc.name+"/"+mu.name, func(t *testing.T) {
				r := newRig(t, []arch.Kind{arch.Sun}, withRegistry(reg))
				m := r.mods[0]
				r.run("main", func(p *sim.Proc) {
					otherType := conv.Char
					if typ == conv.Char {
						otherType = conv.Int32
					}
					base, err := m.Alloc(p, typ, allocated)
					if err != nil {
						t.Error(err)
						return
					}
					other, err := m.Alloc(p, otherType, allocated)
					if err != nil {
						t.Error(err)
						return
					}
					u := mu.mk(env{typ, size, base, other, Addr(spare * m.cfg.PageSize), Addr(m.cfg.SpaceSize)})
					run := func(c misuseCall) (err error, panicked any) {
						defer func() { panicked = recover() }()
						return c(m, p, u.addr, u.id, u.n, size), nil
					}
					err, panicked := run(acc.forms[0])
					if err == nil || !strings.Contains(err.Error(), mu.want) || panicked != nil {
						t.Errorf("%s: err = %v, panic = %v; want an error containing %q and no panic", acc.name, err, panicked, mu.want)
						return
					}
					_, panicked = run(acc.forms[1])
					if want := fmt.Sprintf("dsm: host 0: %v", err); fmt.Sprint(panicked) != want {
						t.Errorf("plain twin of %s panicked with %v, want %q", acc.name, panicked, want)
					}
				})
			})
		}
	}
}

// TestEmptyAccessAtZero: an empty access touches no page, even at
// address 0, where the last byte it would span lies below the space.
func TestEmptyAccessAtZero(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 4)
		if err != nil || addr != 0 {
			t.Errorf("Alloc = %d, %v; want address 0", addr, err)
			return
		}
		if err := r.mods[0].ReadInt32sE(p, addr, nil); err != nil {
			t.Errorf("empty read at 0: %v", err)
		}
		if err := r.mods[0].WriteInt32sE(p, addr, nil); err != nil {
			t.Errorf("empty write at 0: %v", err)
		}
	})
}

func TestStructMigration(t *testing.T) {
	reg := conv.NewRegistry()
	rec, err := reg.RegisterStruct("record", []conv.Field{
		{Type: conv.Int32, Count: 3},
		{Type: conv.Float32, Count: 3},
		{Type: conv.Int16, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, withRegistry(reg))
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, rec, 4)
		if err != nil {
			t.Error(err)
			return
		}
		sun := arch.SunArch
		buf := make([]byte, 32)
		conv.PutInt32(sun, buf[0:], 7)
		conv.PutInt32(sun, buf[4:], -8)
		conv.PutInt32(sun, buf[8:], 9)
		conv.PutFloat32(sun, buf[12:], 1.25)
		conv.PutFloat32(sun, buf[16:], -2.5)
		conv.PutFloat32(sun, buf[20:], 3.75)
		conv.PutInt16(sun, buf[24:], 1)
		conv.PutInt16(sun, buf[26:], 2)
		conv.PutInt16(sun, buf[28:], 3)
		conv.PutInt16(sun, buf[30:], 4)
		r.mods[0].WriteStruct(p, addr, rec, buf)

		got := make([]byte, 32)
		r.mods[1].ReadStruct(p, addr, rec, got)
		ffy := arch.FireflyArch
		if conv.GetInt32(ffy, got[0:]) != 7 || conv.GetInt32(ffy, got[4:]) != -8 || conv.GetInt32(ffy, got[8:]) != 9 {
			t.Error("record ints wrong after migration")
		}
		if conv.GetFloat32(ffy, got[12:]) != 1.25 || conv.GetFloat32(ffy, got[16:]) != -2.5 || conv.GetFloat32(ffy, got[20:]) != 3.75 {
			t.Error("record floats wrong after migration")
		}
		if conv.GetInt16(ffy, got[24:]) != 1 || conv.GetInt16(ffy, got[30:]) != 4 {
			t.Error("record shorts wrong after migration")
		}
	})
}

func TestFloatAnomaliesCounted(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Float64, 4)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[0].WriteFloat64s(p, addr, []float64{1e308, 1, 2, 3}) // overflows VAX G
		var v [4]float64
		r.mods[1].ReadFloat64s(p, addr, v[:])
		if r.mods[1].Stats().ConvReport.Overflows != 1 {
			t.Errorf("overflows %d, want 1", r.mods[1].Stats().ConvReport.Overflows)
		}
	})
}

// measureFault measures the end-to-end delay of one 8 KB page fault in a
// given manager/owner scenario, reproducing Table 4's methodology.
func measureFault(t *testing.T, reqKind, ownKind arch.Kind, scenario string, write bool) time.Duration {
	t.Helper()
	// Host layout: 0 = allocation manager (kept out of the measurement
	// except where it must play a role), pages are assigned managers by
	// page % nHosts. We build a 4-host cluster [aux, R, M, O] and pick
	// the page whose manager matches the scenario.
	//
	// scenario "RM-O": requester is the manager, owner remote.
	// scenario "R-MO": manager and owner are the same remote host.
	// scenario "R-M-O": requester, manager, owner all distinct.
	auxKind := arch.Sun
	kinds := []arch.Kind{auxKind, reqKind, auxKind, ownKind}
	// Manager must be: R (host 1) for RM-O; O (host 3) for R-MO; a third
	// host (host 2) for R-M-O.
	var mgrHost int
	switch scenario {
	case "RM-O":
		mgrHost = 1
	case "R-MO":
		mgrHost = 3
	case "R-M-O":
		mgrHost = 2
	default:
		t.Fatalf("unknown scenario %s", scenario)
	}
	kinds[2] = auxKind
	if scenario == "R-M-O" {
		// Manager kind matters only for its processing cost; the paper
		// does not vary it, so keep it a Sun.
		kinds[2] = arch.Sun
	}
	r := newRig(t, kinds)
	var delay time.Duration
	finished := false
	r.run("main", func(p *sim.Proc) {
		// Find a full page managed by mgrHost: allocate pages until one
		// has the right manager. Each 2048-int allocation is one page.
		var addr Addr
		for {
			a, err := r.mods[0].Alloc(p, conv.Int32, 2048)
			if err != nil {
				t.Error(err)
				return
			}
			if int(r.mods[0].manager(r.mods[0].PageOf(a))) == mgrHost {
				addr = a
				break
			}
		}
		// Owner (host 3) takes ownership by writing.
		r.mods[3].WriteInt32s(p, addr, make([]int32, 2048))
		p.Sleep(time.Second) // let confirmations drain
		// Requester (host 1) faults; measure.
		start := p.Now()
		if write {
			r.mods[1].WriteInt32s(p, addr, []int32{1})
		} else {
			var v [1]int32
			r.mods[1].ReadInt32s(p, addr, v[:])
		}
		delay, finished = p.Now().Sub(start), true
	})
	if !finished {
		t.Fatalf("%s fault (write %v) on host 1 never finished", scenario, write)
	}
	return delay
}

func TestTable4EmergentFaultDelays(t *testing.T) {
	// Paper Table 4 (ms), 8 KB pages, read faults. Columns are labelled
	// owner→requester pairs; conversion included for unlike pairs.
	tests := []struct {
		name      string
		req, own  arch.Kind
		scenario  string
		write     bool
		wantMS    float64
		tolerance float64
	}{
		{name: "Sun→Sun R/M→O read", req: arch.Sun, own: arch.Sun, scenario: "RM-O", wantMS: 26.4, tolerance: 0.12},
		{name: "Sun→Sun R/M→O write", req: arch.Sun, own: arch.Sun, scenario: "RM-O", write: true, wantMS: 26.7, tolerance: 0.12},
		{name: "Sun→Sun R→M/O read", req: arch.Sun, own: arch.Sun, scenario: "R-MO", wantMS: 29.6, tolerance: 0.12},
		{name: "Sun→Sun R→M→O read", req: arch.Sun, own: arch.Sun, scenario: "R-M-O", wantMS: 31.7, tolerance: 0.12},
		{name: "Ffly→Ffly R/M→O read", req: arch.Firefly, own: arch.Firefly, scenario: "RM-O", wantMS: 46.5, tolerance: 0.12},
		{name: "Ffly→Ffly R→M→O read", req: arch.Firefly, own: arch.Firefly, scenario: "R-M-O", wantMS: 54.4, tolerance: 0.15},
		{name: "Ffly→Sun R/M→O read", req: arch.Sun, own: arch.Firefly, scenario: "RM-O", wantMS: 47.7, tolerance: 0.15},
		{name: "Sun→Ffly R/M→O read", req: arch.Firefly, own: arch.Sun, scenario: "RM-O", wantMS: 56.3, tolerance: 0.18},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := measureFault(t, tt.req, tt.own, tt.scenario, tt.write)
			gotMS := float64(got) / float64(time.Millisecond)
			lo, hi := tt.wantMS*(1-tt.tolerance), tt.wantMS*(1+tt.tolerance)
			if gotMS < lo || gotMS > hi {
				t.Errorf("fault delay %.2f ms, paper %.1f ms (tolerance ±%.0f%%)",
					gotMS, tt.wantMS, tt.tolerance*100)
			}
		})
	}
}
