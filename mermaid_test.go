package mermaid

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func twoKindCluster(t *testing.T, opts func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Hosts: []HostSpec{
			{Kind: Sun},
			{Kind: Firefly, CPUs: 4},
			{Kind: Firefly, CPUs: 4},
		},
		Seed: 1,
	}
	if opts != nil {
		opts(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartPattern(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		addr := Addr(args[0])
		v := e.ReadInt32(addr)
		e.Compute(time.Millisecond)
		e.WriteInt32(addr, v*2)
		e.V(1)
	})
	var got int32
	elapsed := c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 1)
		e.WriteInt32(addr, 21)
		if _, err := e.CreateThread(1, worker, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		got = e.ReadInt32(addr)
	})
	if got != 42 {
		t.Fatalf("got %d, want 42 (value corrupted crossing architectures?)", got)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// TestCloseReleasesTheCluster: after Close no goroutine of the cluster
// is left — neither a parked server loop nor the coroutine a finished
// thread or message handler left idle for reuse.
func TestCloseReleasesTheCluster(t *testing.T) {
	before := runtime.NumGoroutine()
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		e.WriteInt32(Addr(args[0]), 2*e.ReadInt32(Addr(args[0])))
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 1)
		e.WriteInt32(addr, 21)
		if _, err := e.CreateThread(1, worker, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
	})
	during := runtime.NumGoroutine()
	c.Close()
	after := runtime.NumGoroutine()
	// By inequality: an earlier test's goroutines may still be exiting.
	if after > before {
		t.Fatalf("%d goroutines after Close, %d before the cluster was built", after, before)
	}
	if during-after < 3 {
		t.Fatalf("Close released %d goroutines (%d → %d), want at least the three hosts' server loops", during-after, during, after)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		c := twoKindCluster(t, nil)
		c.DefineSemaphore(1, 0, 0)
		worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
			buf := make([]int32, 512)
			e.ReadInt32s(Addr(args[0]), buf)
			e.Compute(50 * time.Millisecond)
			e.WriteInt32s(Addr(args[0]), buf)
			e.V(1)
		})
		return c.Run(0, func(e *Env) {
			addr := e.MustAlloc(Int32, 512)
			e.WriteInt32s(addr, make([]int32, 512))
			for h := HostID(1); h <= 2; h++ {
				if _, err := e.CreateThread(h, worker, uint32(addr)); err != nil {
					t.Error(err)
					return
				}
			}
			e.P(1)
			e.P(1)
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical configs ran in %v and %v", a, b)
	}
}

func TestJoinHandle(t *testing.T) {
	c := twoKindCluster(t, nil)
	done := false
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		e.Compute(5 * time.Millisecond)
		done = true
	})
	c.Run(0, func(e *Env) {
		h, err := e.CreateThread(2, worker)
		if err != nil {
			t.Error(err)
			return
		}
		h.Join()
		if !done {
			t.Error("join returned before the thread finished")
		}
	})
}

func TestEventsAndBarriers(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineEvent(10, 1)
	c.DefineBarrier(11, 0, 3)
	order := make([]int, 0, 6)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		e.WaitEvent(10)
		order = append(order, int(args[0]))
		e.Barrier(11)
		order = append(order, 10+int(args[0]))
	})
	c.Run(0, func(e *Env) {
		h1, _ := e.CreateThread(1, worker, 1)
		h2, _ := e.CreateThread(2, worker, 2)
		e.Compute(20 * time.Millisecond)
		e.SetEvent(10)
		e.Barrier(11)
		h1.Join()
		h2.Join()
	})
	if len(order) != 4 {
		t.Fatalf("order %v, want 4 entries", order)
	}
	// Both pre-barrier entries must precede both post-barrier entries.
	if order[0] >= 10 || order[1] >= 10 || order[2] < 10 || order[3] < 10 {
		t.Fatalf("barrier did not separate phases: %v", order)
	}
}

func TestRegisterStructAndAccess(t *testing.T) {
	c := twoKindCluster(t, nil)
	rec, err := c.RegisterStruct("pair", []Field{
		{Type: Int32, Count: 1},
		{Type: Float32, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.DefineSemaphore(1, 0, 0)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		// Touch the record on the Firefly so it migrates and converts.
		buf := make([]byte, 8)
		e.ReadStruct(Addr(args[0]), rec, buf)
		e.WriteStruct(Addr(args[0]), rec, buf)
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(rec, 1)
		buf := make([]byte, 8)
		// Sun-native layout: big-endian int, big-endian IEEE float.
		buf[3] = 99 // int32 = 99
		e.WriteStruct(addr, rec, buf)
		if _, err := e.CreateThread(1, worker, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
		got := make([]byte, 8)
		e.ReadStruct(addr, rec, got)
		if got[3] != 99 {
			t.Errorf("record int corrupted after round trip: % x", got)
		}
	})
}

func TestDisableConversionAblation(t *testing.T) {
	c := twoKindCluster(t, func(cfg *Config) { cfg.DisableConversion = true })
	c.DefineSemaphore(1, 0, 0)
	var seen int32
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		seen = e.ReadInt32(Addr(args[0]))
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 8)
		e.WriteInt32(addr, 0x01020304)
		if _, err := e.CreateThread(1, worker, uint32(addr)); err != nil {
			t.Error(err)
			return
		}
		e.P(1)
	})
	if seen == 0x01020304 {
		t.Fatal("value survived with conversion disabled; ablation not effective")
	}
}

func TestLossyNetworkStillCorrect(t *testing.T) {
	c := twoKindCluster(t, func(cfg *Config) { cfg.DropRate = 0.15 })
	c.DefineSemaphore(1, 0, 0)
	const mutex = 2
	c.DefineSemaphore(mutex, 0, 1)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		// The read-modify-write must be mutually exclusive: DSM gives
		// coherence, not atomicity, so unsynchronized increments would
		// lose updates (on the paper's system just as here).
		e.P(mutex)
		buf := make([]int32, 256)
		e.ReadInt32s(Addr(args[0]), buf)
		for i := range buf {
			buf[i]++
		}
		e.WriteInt32s(Addr(args[0]), buf)
		e.V(mutex)
		e.V(1)
	})
	var sum int64
	elapsed := c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 256)
		vals := make([]int32, 256)
		for i := range vals {
			vals[i] = int32(i)
		}
		e.WriteInt32s(addr, vals)
		for h := HostID(1); h <= 2; h++ {
			if _, err := e.CreateThread(h, worker, uint32(addr)); err != nil {
				t.Error(err)
				return
			}
		}
		e.P(1)
		e.P(1)
		got := make([]int32, 256)
		e.ReadInt32s(addr, got)
		for _, v := range got {
			sum += int64(v)
		}
	})
	// Two full increments over 0..255 — unless a lost frame corrupted
	// state, sum = Σi + 2×256.
	want := int64(255*256/2 + 512)
	if sum != want {
		t.Fatalf("sum %d, want %d; retransmission failed to mask loss", sum, want)
	}
	// The run itself is pinned: the loss decision is one seeded draw per
	// frame, so which frames die, and so the whole timeline, is fixed.
	ns := c.NetStats()
	if elapsed != 7074240176*time.Nanosecond || ns.FramesSent != 63 || ns.FramesDropped != 7 {
		t.Fatalf("run took %v with %d frames sent, %d dropped; want 7.074240176s, 63, 7",
			elapsed, ns.FramesSent, ns.FramesDropped)
	}
}

func TestDropRateOutsideUnitIntervalRejected(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := New(Config{Hosts: []HostSpec{{Kind: Sun}}, DropRate: rate}); err == nil {
			t.Errorf("New accepted DropRate %v", rate)
		}
	}
}

func TestStatsSurface(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		var v [1]int32
		e.ReadInt32s(Addr(args[0]), v[:])
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		addr := e.MustAlloc(Int32, 16)
		e.WriteInt32(addr, 5)
		_, _ = e.CreateThread(1, worker, uint32(addr))
		e.P(1)
	})
	if c.StatsOf(1).ReadFaults == 0 {
		t.Error("firefly recorded no read faults")
	}
	if c.TotalStats().PagesFetched == 0 {
		t.Error("no pages fetched cluster-wide")
	}
	if c.NetStats().FramesSent == 0 {
		t.Error("no frames on the network")
	}
	if c.KindOf(0) != Sun || c.KindOf(1) != Firefly {
		t.Error("KindOf wrong")
	}
	if c.Hosts() != 3 {
		t.Error("Hosts wrong")
	}
}

func TestFacadeAccessorsAllTypes(t *testing.T) {
	// Exercise every typed accessor through the facade, crossing the
	// architecture boundary each way.
	c := twoKindCluster(t, nil)
	c.DefineSemaphore(1, 0, 0)
	var bAddr, i16, f32, f64, ptr Addr
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		if e.Host() != 1 {
			t.Errorf("worker on host %d", e.Host())
		}
		buf := make([]byte, 16)
		e.ReadBytes(bAddr, buf)
		for i := range buf {
			buf[i]++
		}
		e.WriteBytes(bAddr, buf)

		s := make([]int16, 8)
		e.ReadInt16s(i16, s)
		for i := range s {
			s[i] *= 2
		}
		e.WriteInt16s(i16, s)

		f := make([]float32, 4)
		e.ReadFloat32s(f32, f)
		for i := range f {
			f[i] += 0.5
		}
		e.WriteFloat32s(f32, f)

		d := make([]float64, 4)
		e.ReadFloat64s(f64, d)
		for i := range d {
			d[i] *= -1
		}
		e.WriteFloat64s(f64, d)

		if target, ok := e.ReadPointer(ptr); !ok || target != f64 {
			t.Errorf("pointer %v ok=%v, want %v", target, ok, f64)
		}
		e.WritePointer(ptr, f32, true)
		e.V(1)
	})
	c.Run(0, func(e *Env) {
		bAddr = e.MustAlloc(Char, 16)
		i16 = e.MustAlloc(Int16, 8)
		f32 = e.MustAlloc(Float32, 4)
		f64 = e.MustAlloc(Float64, 4)
		ptr = e.MustAlloc(Pointer, 1)

		e.WriteBytes(bAddr, []byte("0123456789abcdef"))
		e.WriteInt16s(i16, []int16{1, -2, 3, -4, 5, -6, 7, -8})
		e.WriteFloat32s(f32, []float32{1, 2, 3, 4})
		e.WriteFloat64s(f64, []float64{1.5, -2.5, 3.5, -4.5})
		e.WritePointer(ptr, f64, true)

		if _, err := e.CreateThread(1, worker); err != nil {
			t.Error(err)
			return
		}
		e.P(1)

		buf := make([]byte, 16)
		e.ReadBytes(bAddr, buf)
		if string(buf) != "123456789:bcdefg" {
			t.Errorf("bytes %q", buf)
		}
		s := make([]int16, 8)
		e.ReadInt16s(i16, s)
		if s[0] != 2 || s[7] != -16 {
			t.Errorf("shorts %v", s)
		}
		f := make([]float32, 4)
		e.ReadFloat32s(f32, f)
		if f[0] != 1.5 || f[3] != 4.5 {
			t.Errorf("floats %v", f)
		}
		d := make([]float64, 4)
		e.ReadFloat64s(f64, d)
		if d[0] != -1.5 || d[3] != 4.5 {
			t.Errorf("doubles %v", d)
		}
		if target, ok := e.ReadPointer(ptr); !ok || target != f32 {
			t.Errorf("pointer now %v ok=%v, want %v", target, ok, f32)
		}
		if e.Host() != 0 || e.Now() <= 0 {
			t.Error("Host/Now wrong")
		}
	})
	if c.Model().MACCost <= 0 {
		t.Error("Model accessor broken")
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Hosts: []HostSpec{{Kind: Sun, CPUs: 3}}}); err == nil {
		t.Error("3-CPU Sun accepted")
	}
}

func TestClusterEventAndBarrierDefinitions(t *testing.T) {
	c := twoKindCluster(t, nil)
	c.DefineEvent(30, 1)
	c.DefineBarrier(31, 2, 2)
	released := 0
	worker := c.MustRegisterFunc(func(e *Env, args []uint32) {
		e.WaitEvent(30)
		e.Barrier(31)
		released++
	})
	c.Run(0, func(e *Env) {
		h1, _ := e.CreateThread(1, worker)
		h2, _ := e.CreateThread(2, worker)
		e.Compute(5 * time.Millisecond)
		e.SetEvent(30)
		h1.Join()
		h2.Join()
	})
	if released != 2 {
		t.Fatalf("released %d, want 2", released)
	}
}
