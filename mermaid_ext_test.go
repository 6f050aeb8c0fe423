package mermaid

// Tests for the extension features: thread migration, automatic
// conversion-routine generation from Go structs, the centralized
// manager ablation, and atomic shared-memory operations.

import (
	"reflect"
	"testing"
	"time"
)

func TestThreadMigration(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	var kinds []Kind
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		kinds = append(kinds, e.Kind())
		e.Compute(10 * time.Millisecond)
		if err := e.MigrateTo(0); err != nil { // Firefly → Sun
			t.Error(err)
		}
		kinds = append(kinds, e.Kind())
		e.Compute(10 * time.Millisecond)
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		h, err := e.CreateThread(1, worker)
		if err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		h.Join()
	})
	if len(kinds) != 2 || kinds[0] != Firefly || kinds[1] != Sun {
		t.Fatalf("kinds %v, want [Firefly Sun]", kinds)
	}
}

func TestMigratedThreadFaultsPagesToNewHost(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	var addr Addr
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		if err := e.MigrateTo(2); err != nil { // move to the second Firefly
			t.Error(err)
		}
		e.WriteInt32(addr, 7) // fault lands on host 2
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr = e.MustAlloc(Int32, 16)
		e.WriteInt32(addr, 1)
		if _, err := e.CreateThread(1, worker); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
	})
	if c.StatsOf(2).WriteFaults == 0 {
		t.Fatal("migrated thread's write fault not recorded on the destination host")
	}
	if c.StatsOf(1).WriteFaults != 0 {
		t.Fatal("write fault recorded on the origin host after migration")
	}
}

func TestMainCannotMigrate(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.Run(0, func(e *Env) {
		if err := e.MigrateTo(1); err == nil {
			t.Error("main function migrated")
		}
	})
}

func TestMigrationJoinStillWorks(t *testing.T) {
	// A thread created remotely that migrates before exiting must still
	// notify its creator for Join.
	c := twoKindCluster(t, nil)
	done := false
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		_ = e.MigrateTo(2)
		e.Compute(time.Millisecond)
		done = true
	})
	c.Run(0, func(e *Env) {
		h, err := e.CreateThread(1, worker)
		if err != nil {
			t.Error(err)
			return
		}
		h.Join()
		if !done {
			t.Error("join returned before migrated thread finished")
		}
	})
}

func TestRegisterGoStructThroughFacade(t *testing.T) {
	type Particle struct {
		Pos  [3]float32
		Mass float64
		ID   int32
		Next SharedPtr
	}
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	pt, err := c.RegisterGoStruct(reflect.TypeOf(Particle{}))
	if err != nil {
		t.Fatal(err)
	}
	bounce := c.MustRegisterFunc(func(e *Env, args []uint32) {
		buf := make([]byte, 28)
		e.ReadStruct(Addr(args[0]), pt, buf)
		e.WriteStruct(Addr(args[0]), pt, buf)
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(pt, 2)
		buf := make([]byte, 28)
		e.ReadStruct(addr, pt, buf) // zero record round trip
		if _, err := e.CreateThread(1, bounce, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		got := make([]byte, 28)
		e.ReadStruct(addr, pt, got)
		for i, b := range got {
			if b != 0 {
				t.Fatalf("byte %d = %d after zero-record round trip", i, b)
			}
		}
	})
}

func TestCentralManagerStillCorrect(t *testing.T) {
	c := twoKindCluster(t, func(cfg *Config) { cfg.DirectoryScheme = DirCentral })
	c.DefineSemaphore(1, 0, 0)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		v := e.ReadInt32(Addr(args[0]))
		e.WriteInt32(Addr(args[0]), v+1)
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 64)
		e.WriteInt32(addr, 0)
		for h := HostID(1); h <= 2; h++ {
			if _, err := e.CreateThread(h, worker, uint32(addr)); err != nil {
				t.Error(err)
				return
			}
			e.P(1) // serialize so increments don't race
		}
		if got := e.ReadInt32(addr); got != 2 {
			t.Errorf("counter %d, want 2 under central manager", got)
		}
	})
}

func TestAtomicSwapMutualExclusion(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	var lock, counter Addr
	const rounds = 5
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		for i := 0; i < rounds; i++ {
			for e.AtomicSwapInt32(lock, 1) != 0 {
				e.Compute(time.Millisecond)
			}
			v := e.ReadInt32(counter)
			e.Compute(100 * time.Microsecond)
			e.WriteInt32(counter, v+1)
			e.AtomicSwapInt32(lock, 0)
		}
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		lock = e.MustAlloc(Int32, 2048)    // own page
		counter = e.MustAlloc(Int32, 2048) // own page
		e.WriteInt32(lock, 0)
		e.WriteInt32(counter, 0)
		for h := HostID(1); h <= 2; h++ {
			if _, err := e.CreateThread(h, worker); err != nil {
				t.Error(err)
				return
			}
		}
		e.P(1)
		e.P(1)
		if got := e.ReadInt32(counter); got != 2*rounds {
			t.Errorf("counter %d, want %d — spinlock failed to exclude", got, 2*rounds)
		}
	})
}

func TestUpdatePolicyThroughFacade(t *testing.T) {
	c := twoKindCluster(t, func(cfg *Config) { cfg.Policy = Update })
	c.DefineSemaphore(1, 0, 0)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		addr := Addr(args[0])
		v := e.ReadInt32(addr)
		e.WriteInt32(addr, v+100) // sequenced update, converted at replicas
		e.V(1)
	})
	reader := c.MustRegisterFunc(func(e *Env, args []uint32) {
		_ = e.ReadInt32(Addr(args[0])) // host 2 becomes a replica holder
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 8)
		e.WriteInt32(addr, 1)
		if _, err := e.CreateThread(2, reader, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		if _, err := e.CreateThread(1, worker, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		if got := e.ReadInt32(addr); got != 101 {
			t.Errorf("replica value %d, want 101 pushed by update", got)
		}
	})
	// Host 2's replica must have received the push; the writer must
	// have sequenced through the manager.
	if c.StatsOf(2).UpdatesApplied == 0 {
		t.Error("host 2's replica received no update push")
	}
	if c.StatsOf(1).UpdateWrites == 0 {
		t.Error("worker sequenced no updates")
	}
}

func TestEnvFieldCodecs(t *testing.T) {
	// The same buffer written with the Sun's codecs and read with the
	// Firefly's codecs after conversion of a one-record struct page.
	type Rec struct {
		A int32
		B float64
		C int16
		P SharedPtr
	}
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	rt, err := c.RegisterGoStruct(reflect.TypeOf(Rec{}))
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 + 8 + 2 + 4
	var addr, target Addr
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		buf := make([]byte, size)
		e.ReadStruct(addr, rt, buf)
		if e.Int32At(buf, 0) != -77 {
			t.Errorf("A = %d", e.Int32At(buf, 0))
		}
		if e.Float64At(buf, 4) != 2.75 {
			t.Errorf("B = %v", e.Float64At(buf, 4))
		}
		if e.Int16At(buf, 12) != 1234 {
			t.Errorf("C = %d", e.Int16At(buf, 12))
		}
		if got, ok := e.PointerAt(buf, 14); !ok || got != target {
			t.Errorf("P = %v ok=%v, want %v", got, ok, target)
		}
		e.PutPointerAt(buf, 14, 0, false)
		e.WriteStruct(addr, rt, buf)
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr = e.MustAlloc(rt, 1)
		target = e.MustAlloc(Int32, 4)
		buf := make([]byte, size)
		e.PutInt32At(buf, 0, -77)
		e.PutFloat64At(buf, 4, 2.75)
		e.PutInt16At(buf, 12, 1234)
		e.PutPointerAt(buf, 14, target, true)
		e.WriteStruct(addr, rt, buf)
		if _, err := e.CreateThread(1, worker); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		got := make([]byte, size)
		e.ReadStruct(addr, rt, got)
		if _, ok := e.PointerAt(got, 14); ok {
			t.Error("pointer not nulled by the firefly")
		}
		if e.Float32At(make([]byte, 4), 0) != 0 {
			t.Error("Float32At zero decode wrong")
		}
		b2 := make([]byte, 4)
		e.PutFloat32At(b2, 0, 1.5)
		if e.Float32At(b2, 0) != 1.5 {
			t.Error("Float32At round trip wrong")
		}
	})
}

// TestAcquireReleaseCounterOnSwitchedStar: threads on the two hosts of
// a two-segment switched star, a Sun and a Firefly, each increment a
// shared counter under Acquire/Release of one lock (lazy release
// consistency), so every increment must see the last one.
func TestAcquireReleaseCounterOnSwitchedStar(t *testing.T) {
	c, err := New(Config{
		Hosts:  []HostSpec{{Kind: Sun}, {Kind: Firefly}},
		Net:    SwitchedStar(2, 1),
		Policy: RC,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const lock, done, rounds = 1, 2, 10
	c.DefineSemaphore(lock, 0, 1)
	c.DefineSemaphore(done, 0, 0)
	var counter Addr
	increment := func(e *Env) {
		for i := 0; i < rounds; i++ {
			e.Acquire(lock)
			e.WriteInt32(counter, e.ReadInt32(counter)+1)
			e.Compute(100 * time.Microsecond)
			e.Release(lock)
		}
	}
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		increment(e)
		e.V(done)
	})
	c.Run(0, func(e *Env) {
		counter = e.MustAlloc(Int32, 1)
		if _, err := e.CreateThread(1, worker); err != nil {
			t.Error(err)
			return
		}
		increment(e)
		e.P(done)
		e.Acquire(lock)
		if got := e.ReadInt32(counter); got != 2*rounds {
			t.Errorf("counter %d, want %d", got, 2*rounds)
		}
		e.Release(lock)
	})
	if c.NetStats().CrossSegmentFrames == 0 {
		t.Error("no frame crossed the switch between the two segments")
	}
}
