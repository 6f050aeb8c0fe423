package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	k.Run()
	if woke != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if k.Now() != Time(5*time.Millisecond) {
		t.Fatalf("kernel now %v, want 5ms", k.Now())
	}
}

func TestZeroAndNegativeSleepReturnImmediately(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("process did not complete")
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved to %v on zero sleeps", k.Now())
	}
}

func TestEventOrderingIsDeterministicFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO by spawn sequence", order)
		}
	}
}

func TestAfterCallbackRunsAtScheduledTime(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.After(3*time.Second, func() { at = k.Now() })
	k.Run()
	if at != Time(3*time.Second) {
		t.Fatalf("callback at %v, want 3s", at)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel(1)
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childTime = c.Now()
		})
	})
	k.Run()
	if childTime != Time(2*time.Second) {
		t.Fatalf("child finished at %v, want 2s", childTime)
	}
}

func TestSemaphorePVBlocksAndWakes(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	var acquired Time
	k.Spawn("waiter", func(p *Proc) {
		sem.P(p)
		acquired = p.Now()
	})
	k.Spawn("poster", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		sem.V()
	})
	k.Run()
	if acquired != Time(7*time.Millisecond) {
		t.Fatalf("acquired at %v, want 7ms", acquired)
	}
}

func TestSemaphoreFIFOHandoff(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			sem.P(p)
			order = append(order, i)
		})
	}
	k.Spawn("poster", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			sem.V()
		}
	})
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wakeup order %v not FIFO", order)
		}
	}
}

func TestSemaphoreTryP(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 1)
	k.Spawn("p", func(p *Proc) {
		if !sem.TryP() {
			t.Error("TryP failed with count 1")
		}
		if sem.TryP() {
			t.Error("TryP succeeded with count 0")
		}
	})
	k.Run()
}

func TestQueuePutGet(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue(k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v, want [0 1 2]", got)
	}
}

func TestQueueGetTimeoutExpires(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue(k)
	var ok bool
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		_, ok = q.GetTimeout(p, 10*time.Millisecond)
		at = p.Now()
	})
	k.Run()
	if ok {
		t.Fatal("GetTimeout succeeded on empty queue")
	}
	if at != Time(10*time.Millisecond) {
		t.Fatalf("timed out at %v, want 10ms", at)
	}
}

func TestQueueGetTimeoutDeliveredInTime(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue(k)
	var v any
	var ok bool
	k.Spawn("consumer", func(p *Proc) {
		v, ok = q.GetTimeout(p, 10*time.Millisecond)
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		q.Put("hello")
	})
	k.Run()
	if !ok || v != "hello" {
		t.Fatalf("got %v ok=%v, want hello", v, ok)
	}
}

func TestQueueTimeoutThenLaterPutWakesNobodyStale(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue(k)
	var first, second any
	k.Spawn("c1", func(p *Proc) {
		first, _ = q.GetTimeout(p, time.Millisecond)
		// Park again on an unrelated sleep; a stale queue wake must not
		// cut this short.
		p.Sleep(time.Hour)
	})
	k.Spawn("c2", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		second = q.Get(p)
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		q.Put(42)
	})
	k.Run()
	if first != nil {
		t.Fatalf("timed-out getter received %v", first)
	}
	if second != 42 {
		t.Fatalf("live getter got %v, want 42", second)
	}
}

func TestResourceSerializesUse(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn("u", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	// Two at a time: finish at 10,10,20,20 ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestEventBroadcast(t *testing.T) {
	k := NewKernel(1)
	e := NewEvent(k)
	released := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			e.Wait(p)
			released++
		})
	}
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Set()
	})
	k.Run()
	if released != 3 {
		t.Fatalf("released %d, want 3", released)
	}
}

func TestEventWaitAfterSetDoesNotBlock(t *testing.T) {
	k := NewKernel(1)
	e := NewEvent(k)
	done := false
	k.Spawn("p", func(p *Proc) {
		e.Set()
		e.Wait(p)
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("wait on a set event blocked")
	}
}

func TestPrepareWaitWakeBeforePark(t *testing.T) {
	k := NewKernel(1)
	var reason WakeReason
	k.Spawn("p", func(p *Proc) {
		w := p.PrepareWait()
		k.Wake(w, WakeSignal) // wake arrives before Park
		reason = p.Park()
	})
	k.Run()
	if reason != WakeSignal {
		t.Fatalf("reason %v, want WakeSignal", reason)
	}
}

func TestParkTimeoutSignalWins(t *testing.T) {
	k := NewKernel(1)
	var reason WakeReason
	var at Time
	k.Spawn("p", func(p *Proc) {
		w := p.PrepareWait()
		k.After(time.Millisecond, func() { k.Wake(w, WakeSignal) })
		reason = p.ParkTimeout(time.Second)
		at = p.Now()
	})
	k.Run()
	if reason != WakeSignal || at != Time(time.Millisecond) {
		t.Fatalf("reason %v at %v, want signal at 1ms", reason, at)
	}
}

func TestParkTimeoutExpiry(t *testing.T) {
	k := NewKernel(1)
	var reason WakeReason
	var at Time
	k.Spawn("p", func(p *Proc) {
		_ = p.PrepareWait() // never woken
		reason = p.ParkTimeout(4 * time.Millisecond)
		at = p.Now()
	})
	k.Run()
	if reason != WakeTimeout || at != Time(4*time.Millisecond) {
		t.Fatalf("reason %v at %v, want timeout at 4ms", reason, at)
	}
}

func TestDuplicateWakeIsIgnored(t *testing.T) {
	k := NewKernel(1)
	wakes := 0
	k.Spawn("p", func(p *Proc) {
		w := p.PrepareWait()
		k.After(time.Millisecond, func() {
			k.Wake(w, WakeSignal)
			k.Wake(w, WakeSignal)
		})
		p.Park()
		wakes++
		p.Sleep(time.Hour) // a second (stale) wake would cut this short
		wakes++
	})
	k.Run()
	if wakes != 2 {
		t.Fatalf("wakes %d, want 2", wakes)
	}
	if k.Now() != Time(time.Millisecond)+Time(time.Hour) {
		t.Fatalf("clock %v, want 1h1ms", k.Now())
	}
}

func TestStalledReportsParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	k.Spawn("stuck", func(p *Proc) { sem.P(p) })
	k.Run()
	names := k.Stalled()
	if len(names) != 1 || names[0] != "stuck" {
		t.Fatalf("stalled %v, want [stuck]", names)
	}
}

func TestRunForStopsAtDeadline(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			ticks = append(ticks, p.Now())
		}
	})
	k.RunFor(3500 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks before deadline, want 3", len(ticks))
	}
	if k.Now() != Time(3500*time.Millisecond) {
		t.Fatalf("clock %v, want 3.5s", k.Now())
	}
	k.Run()
	if len(ticks) != 10 {
		t.Fatalf("got %d ticks after full run, want 10", len(ticks))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []int {
		k := NewKernel(42)
		var out []int
		q := NewQueue(k)
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn("prod", func(p *Proc) {
				p.Sleep(Duration(k.Rand().Intn(10)) * time.Millisecond)
				q.Put(i)
			})
		}
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < 4; i++ {
				out = append(out, q.Get(p).(int))
			}
		})
		k.Run()
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ: %v vs %v", a, b)
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kernel did not propagate process panic")
		}
	}()
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) { panic("bang") })
	k.Run()
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds %v", tm.Seconds())
	}
	if tm.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds %v", tm.Milliseconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatal("Add wrong")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatal("Sub wrong")
	}
}

func TestSortedKeys(t *testing.T) {
	type pageNo uint32 // a named key type, as dsm.PageNo
	if got := SortedKeys(map[int]bool(nil)); len(got) != 0 {
		t.Errorf("nil map: %v", got)
	}
	if got := SortedKeys(map[string]int{}); len(got) != 0 {
		t.Errorf("empty map: %v", got)
	}
	if got := SortedKeys(map[int]string{3: "c", -1: "a", 20: "d", 2: "b"}); !slices.Equal(got, []int{-1, 2, 3, 20}) {
		t.Errorf("ints: %v", got)
	}
	if got := SortedKeys(map[string]int{"rc": 1, "basic": 2, "quorum": 3}); !slices.Equal(got, []string{"basic", "quorum", "rc"}) {
		t.Errorf("strings: %v", got)
	}
	pages := map[pageNo]struct{}{}
	for pg := pageNo(64); pg > 0; pg-- {
		pages[pg*7%64] = struct{}{}
	}
	got := SortedKeys(pages)
	if len(got) != len(pages) || !slices.IsSorted(got) {
		t.Errorf("named uint32 keys: %v", got)
	}
}

func TestEachReturnsResultsInIndexOrder(t *testing.T) {
	if got := Each(0, func(int) int { panic("ran with nothing to run") }); len(got) != 0 {
		t.Errorf("n=0: %v", got)
	}
	// Each run drives a kernel of its own, as the harnesses do.
	got := Each(37, func(i int) Time {
		k := NewKernel(int64(i))
		k.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Duration(i) * time.Millisecond) })
		k.Run()
		return k.Now()
	})
	for i, at := range got {
		if at != Time(time.Duration(i)*time.Millisecond) {
			t.Errorf("result %d is %v", i, at)
		}
	}
}

// TestEachLeavesOneProcessorFree pins the worker count: one fewer than
// GOMAXPROCS and at least one, so on one or two processors the runs are
// sequential and in index order.
func TestEachLeavesOneProcessorFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs, want := range map[int]int32{1: 1, 2: 1, 4: 3} {
		runtime.GOMAXPROCS(procs)
		var running, most atomic.Int32
		var order []int
		Each(24, func(i int) int {
			n := running.Add(1)
			defer running.Add(-1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			if want == 1 {
				order = append(order, i)
			}
			time.Sleep(time.Millisecond) // long enough for every worker to be in a run
			return i
		})
		if got := most.Load(); got != want {
			t.Errorf("GOMAXPROCS=%d: %d runs side by side, want %d", procs, got, want)
		}
		if want == 1 && !slices.IsSorted(order) {
			t.Errorf("GOMAXPROCS=%d: runs out of index order: %v", procs, order)
		}
	}
}

// TestEachReraisesLowestPanic pins the panic contract: the value of the
// lowest panicking index reaches the caller's goroutine — a simulated
// process's panic included, in the kernel's wording — and only once
// every worker has stopped. With one worker the runs are sequential, so
// nothing after the panicking run starts.
func TestEachReraisesLowestPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var running, started atomic.Int32
		func() {
			defer func() {
				want := `sim: process "boom" panicked: run 5 failed`
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("GOMAXPROCS=%d: recovered %q, want %q", procs, got, want)
				}
				if n := running.Load(); n != 0 {
					t.Errorf("GOMAXPROCS=%d: %d runs still going when the panic surfaced", procs, n)
				}
			}()
			Each(40, func(i int) int {
				running.Add(1)
				defer running.Add(-1)
				started.Add(1)
				if i == 5 || i == 9 {
					k := NewKernel(1)
					k.Spawn("boom", func(*Proc) { panic(fmt.Sprintf("run %d failed", i)) })
					k.Run()
				}
				return i
			})
			t.Errorf("GOMAXPROCS=%d: Each returned", procs)
		}()
		if n := started.Load(); procs == 1 && n != 6 {
			t.Errorf("GOMAXPROCS=1: %d runs started, want runs 0 to 5 only", n)
		}
	}
}
