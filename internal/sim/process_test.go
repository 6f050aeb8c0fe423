package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// These tests pin the process life cycle: how a process's panic, exit
// and forced termination look from outside the kernel.

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// drivers are the three ways to run a kernel to the end; under Run and
// RunSteps an event may run on whatever process parked last, under a
// bare Step loop every one runs on the caller's stack.
var drivers = map[string]func(k *Kernel){
	"Run":      (*Kernel).Run,
	"RunSteps": func(k *Kernel) { k.RunSteps(1000, nil) },
	"Step": func(k *Kernel) {
		for k.Step() {
		}
	},
}

func TestProcessPanicIsWrappedWithItsName(t *testing.T) {
	for name, drive := range drivers {
		k := NewKernel(1)
		k.Spawn("bystander", func(p *Proc) { p.Park() })
		k.Spawn("boom", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic("bang")
		})
		got := recovered(func() { drive(k) })
		if want := `sim: process "boom" panicked: bang`; got != want {
			t.Errorf("%s re-raised %#v, want %q", name, got, want)
		}
		// The panicked process is finished, not stalled, and the kernel
		// can still be shut down.
		if s := k.Stalled(); len(s) != 1 || s[0] != "bystander" {
			t.Errorf("%s: stalled %v after the panic, want [bystander]", name, s)
		}
		k.Shutdown()
		if s := k.Stalled(); len(s) != 0 {
			t.Errorf("%s: stalled %v after Shutdown", name, s)
		}
	}
}

// A callback's panic is reported as the callback's, whoever's stack it
// unwound on the way out.
func TestCallbackPanicSurfacesOnCaller(t *testing.T) {
	for name, drive := range drivers {
		k := NewKernel(1)
		k.Spawn("thread-2.1", func(p *Proc) { p.Sleep(time.Second) })
		k.AfterNamed("deliver", time.Millisecond, func() { panic("callback bang") })
		got := recovered(func() { drive(k) })
		if want := `sim: callback "deliver" panicked: callback bang`; got != want {
			t.Errorf("%s re-raised %#v, want %q", name, got, want)
		}
		k.Shutdown()
	}
}

// A callback that parks would suspend whichever process is dispatching
// it in the middle of that process's own wait: it panics by name.
func TestCallbackThatBlocksPanicsByName(t *testing.T) {
	for name, drive := range drivers {
		k := NewKernel(1)
		sem := NewSemaphore(k, 0)
		var sleeper *Proc
		sleeper = k.Spawn("thread-2.1", func(p *Proc) { p.Sleep(time.Second) })
		k.After(time.Millisecond, func() { sem.P(sleeper) })
		got := recovered(func() { drive(k) })
		if want := `sim: callback "callback" tried to block`; got != want {
			t.Errorf("%s re-raised %#v, want %q", name, got, want)
		}
		k.Shutdown()
	}
}

func TestExitIsCleanCompletion(t *testing.T) {
	k := NewKernel(1)
	var cleaned, after bool
	k.Spawn("quitter", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Millisecond)
		p.Exit()
		after = true
	})
	k.Run() // must not panic
	if !cleaned || after {
		t.Fatalf("deferred ran=%v, code after Exit ran=%v; want true, false", cleaned, after)
	}
	if s := k.Stalled(); len(s) != 0 {
		t.Fatalf("stalled %v after Exit", s)
	}
}

func TestGoexitInProcessEndsTheCaller(t *testing.T) {
	// t.Fatal inside a process body is a Goexit on the process; it must
	// end the goroutine that is driving the kernel, as it would have had
	// the body been called directly.
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		k := NewKernel(1)
		k.Spawn("fatal", func(p *Proc) {
			p.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		k.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned normally after a process called Goexit")
	}
}

func TestShutdownNeverRunsUnstartedBody(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.SpawnAt(Time(time.Hour), "late", func(p *Proc) { ran = true })
	k.RunFor(time.Second)
	k.Shutdown()
	if ran {
		t.Fatal("Shutdown ran the body of a process that had not started")
	}
	if s := k.Stalled(); len(s) != 0 {
		t.Fatalf("stalled %v after Shutdown", s)
	}
}

func TestShutdownUnwindsCleanupThatParks(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	var steps []string
	k.Spawn("server", func(p *Proc) {
		defer func() { steps = append(steps, "outer cleanup") }()
		defer func() {
			steps = append(steps, "cleanup parks")
			sem.P(p) // unwinds at once: the process is being killed
			steps = append(steps, "unreachable")
		}()
		sem.P(p)
		steps = append(steps, "unreachable")
	})
	k.Run()
	k.Shutdown()
	want := []string{"cleanup parks", "outer cleanup"}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("teardown steps %q, want %q", steps, want)
	}
}

func TestShutdownReleasesEveryProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	q := NewQueue(k)
	for i := 0; i < 50; i++ {
		k.Spawn("server", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
	}
	k.SpawnAt(Time(time.Hour), "late", func(p *Proc) {})
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < 200; i++ {
			q.Put(i)
			p.Sleep(time.Microsecond)
		}
	})
	k.RunFor(time.Second)
	during := runtime.NumGoroutine()
	k.Shutdown()
	after := runtime.NumGoroutine()
	// The previous test's goroutine may still be exiting, so the counts
	// are compared by inequality: none may be left, and the 51 live
	// processes (50 parked, one never started) must all have gone.
	if after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the run", after, before)
	}
	if during-after < 51 {
		t.Fatalf("Shutdown released %d goroutines (%d → %d), want the 51 live processes", during-after, during, after)
	}
}

// scriptChooser replays a recorded choice sequence, or, with no script,
// draws choices from a seeded source and records them.
type scriptChooser struct {
	rng    *rand.Rand
	script []int
	made   []int
}

func (c *scriptChooser) Choose(_ Time, n int, _ func(int) string) int {
	var idx int
	if c.rng != nil {
		idx = c.rng.Intn(n)
	} else {
		idx = c.script[len(c.made)]
	}
	c.made = append(c.made, idx)
	return idx
}

func TestChooserRunReplaysBitIdentically(t *testing.T) {
	run := func(c *scriptChooser) []string {
		k := NewKernel(7)
		k.SetChooser(c)
		var log []string
		sem := NewSemaphore(k, 1)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("w%d", i)
			k.Spawn(name, func(p *Proc) {
				for r := 0; r < 3; r++ {
					sem.P(p)
					log = append(log, fmt.Sprintf("%s@%v#%d", name, p.Now(), k.Choose(3, "pick")))
					p.Sleep(time.Millisecond)
					sem.V()
					p.Yield()
				}
			})
		}
		k.Run()
		k.Shutdown()
		return log
	}
	rec := &scriptChooser{rng: rand.New(rand.NewSource(3))}
	first := run(rec)
	if len(rec.made) < 10 {
		t.Fatalf("only %d choice points; the workload does not exercise the chooser", len(rec.made))
	}
	rep := &scriptChooser{script: rec.made}
	if again := run(rep); !reflect.DeepEqual(first, again) || !reflect.DeepEqual(rec.made, rep.made) {
		t.Fatalf("replay diverged:\n first %v\n again %v", first, again)
	}
}

// The tests below pin coroutine reuse: a process that finishes cleanly
// leaves its coroutine on the kernel's idle list for the next Spawn.

func TestFinishedCoroutineIsRecycled(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	// Twenty processes one after another, each spawned a microsecond
	// after the previous one finished.
	var spawn func(i int)
	spawn = func(i int) {
		if i == 20 {
			return
		}
		k.Spawn(fmt.Sprintf("short-%d", i), func(p *Proc) {
			defer k.After(time.Microsecond, func() { spawn(i + 1) })
			p.Sleep(time.Microsecond)
			if i%2 == 1 {
				p.Exit() // a clean completion too
			}
		})
	}
	spawn(0)
	k.Run()
	if len(k.idle) != 1 {
		t.Fatalf("%d idle coroutines after 20 sequential processes, want the 1 they shared", len(k.idle))
	}
	if s := k.Stalled(); len(s) != 0 {
		t.Fatalf("stalled %v: a finished process is still registered", s)
	}
	during := runtime.NumGoroutine()
	k.Shutdown()
	after := runtime.NumGoroutine()
	// By inequality, as above: an earlier test's goroutines may still be
	// exiting when this one starts counting.
	if after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the run: idle coroutines leaked", after, before)
	}
	if during-after < 1 {
		t.Fatalf("Shutdown released %d goroutines (%d → %d), want the idle coroutine", during-after, during, after)
	}
}

func TestRecycledCoroutineRunsItsOwnTenant(t *testing.T) {
	// The second tenant of a coroutine must see its own name and its own
	// wake reason, not what the first left behind.
	k := NewKernel(1)
	var got []string
	k.Spawn("first", func(p *Proc) {
		got = append(got, fmt.Sprintf("%s:%d", p.Name(), p.ParkTimeout(time.Millisecond)))
	})
	k.After(2*time.Millisecond, func() {
		var w Waiter
		k.Spawn("second", func(p *Proc) {
			w = p.PrepareWait()
			got = append(got, fmt.Sprintf("%s:%d", p.Name(), p.Park()))
		})
		if len(k.idle) != 0 {
			t.Errorf("%d idle coroutines after the respawn, want first's to be taken", len(k.idle))
		}
		k.After(time.Millisecond, func() { k.Wake(w, WakeSignal) })
	})
	k.Run()
	k.Shutdown()
	want := []string{
		fmt.Sprintf("first:%d", WakeTimeout),
		fmt.Sprintf("second:%d", WakeSignal),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants saw %q, want %q", got, want)
	}
}

func TestPanickedCoroutineIsNotReused(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("bang")
	})
	if got, want := recovered(k.Run), `sim: process "boom" panicked: bang`; got != want {
		t.Fatalf("Run re-raised %#v, want %q", got, want)
	}
	if len(k.idle) != 0 {
		t.Fatalf("the panicked process's coroutine went onto the idle list")
	}
	// The kernel is still usable: the next process gets a fresh
	// coroutine and runs to completion under its own name.
	ran := ""
	k.Spawn("next", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ran = p.Name()
	})
	k.Run()
	if ran != "next" {
		t.Fatalf("process spawned after the panic ran as %q", ran)
	}
	k.Shutdown()
}

func TestShutdownKillsUnstartedTenantOfRecycledCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Spawn("first", func(p *Proc) {})
	k.Run()
	ran := false
	k.SpawnAt(Time(time.Hour), "late", func(p *Proc) { ran = true })
	k.Shutdown()
	if ran {
		t.Fatal("Shutdown ran the body of a process that had not started")
	}
	if s := k.Stalled(); len(s) != 0 {
		t.Fatalf("stalled %v after Shutdown", s)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Shutdown, %d before the run", after, before)
	}
}

func TestChooserReplayWithRecycledCoroutines(t *testing.T) {
	// Which coroutine a process lands on must not reach the schedule:
	// waves of short-lived workers, each wave reusing the last one's
	// coroutines, replay bit-identically from the recorded choices.
	run := func(c *scriptChooser) []string {
		k := NewKernel(7)
		k.SetChooser(c)
		var log []string
		for wave := 0; wave < 3; wave++ {
			k.After(Duration(wave)*time.Millisecond, func() {
				for i := 0; i < 4; i++ {
					k.Spawn(fmt.Sprintf("w%d.%d", wave, i), func(p *Proc) {
						log = append(log, fmt.Sprintf("%s@%v#%d", p.Name(), p.Now(), k.Choose(3, "pick")))
						p.Yield()
						log = append(log, p.Name()+" done")
					})
				}
			})
		}
		k.Run()
		if len(k.idle) != 4 {
			t.Errorf("%d idle coroutines after three waves of four, want 4", len(k.idle))
		}
		k.Shutdown()
		return log
	}
	rec := &scriptChooser{rng: rand.New(rand.NewSource(3))}
	first := run(rec)
	rep := &scriptChooser{script: rec.made}
	if again := run(rep); !reflect.DeepEqual(first, again) || !reflect.DeepEqual(rec.made, rep.made) {
		t.Fatalf("replay diverged:\n first %v\n again %v", first, again)
	}
}
