package sim

// Who dispatches must not matter. A parked process runs events on its
// own stack (park) under Run, RunUntil, RunFor and RunSteps; under a
// bare Step loop the kernel loop runs every one. These tests hold the
// two to the same sequence of dispatches and the same stopping points.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// labelChooser draws choices from its own seeded source and logs every
// question it is asked — instant, alternatives by label, answer — so two
// runs that ask it the same questions in the same order log the same.
type labelChooser struct {
	rng *rand.Rand
	log *[]string
}

func (c *labelChooser) Choose(now Time, n int, label func(int) string) int {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = label(i)
	}
	idx := c.rng.Intn(n)
	*c.log = append(*c.log, fmt.Sprintf("%v choose %d of %v", now, idx, labels))
	return idx
}

// randomProgram runs a seeded random program under drive and returns
// its dispatch log — one "(time) label" line per callback run and per
// process resumed, plus the chooser's questions — followed by the state
// it ended in, and the kernel's counters.
func randomProgram(seed int64, choose bool, drive func(k *Kernel)) ([]string, Counts) {
	k := NewKernel(seed)
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	if choose {
		k.SetChooser(&labelChooser{rng: rand.New(rand.NewSource(seed)), log: &log})
	}
	sem := NewSemaphore(k, 1)
	q := NewTypedQueue[int](k)
	sunk := NewTypedQueue[int](k)
	var drain func()
	drain = func() {
		for {
			v, ok := sunk.TryGet()
			if !ok {
				sunk.Arm()
				return
			}
			note("sink got %d", v)
			if v%3 == 0 {
				sem.V()
			}
		}
	}
	sunk.SetSink("sink", drain)
	k.AfterNamed("sink", 0, drain)
	var waiters []Waiter

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("proc-%d", i)
		k.Spawn(name, func(p *Proc) {
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			for step := 0; step < 10; step++ {
				d := Duration(rng.Intn(4)) * time.Millisecond
				switch op := rng.Intn(10); op {
				case 0:
					p.Sleep(d)
					note("%s slept", name)
				case 1:
					p.Yield()
					note("%s yielded", name)
				case 2:
					waiters = append(waiters, p.PrepareWait())
					note("%s parked: %v", name, p.ParkTimeout(d+time.Millisecond))
				case 3:
					sem.P(p)
					note("%s has the semaphore", name)
					p.Sleep(d)
					sem.V()
				case 4:
					q.Put(step)
				case 5:
					v, ok := q.GetTimeout(p, d)
					note("%s got %d %v", name, v, ok)
				case 6:
					sunk.Put(step)
				case 7:
					k.AfterNamed("cb-"+name, d, func() {
						note("callback of %s", name)
						if len(waiters) > 0 {
							k.Wake(waiters[0], WakeSignal)
							waiters = waiters[1:]
						}
						q.Put(-1)
					})
				case 8:
					k.Spawn("child-of-"+name, func(c *Proc) {
						c.Sleep(d)
						note("child of %s ran", name)
					})
				case 9:
					take := func(any) {
						note("stand-in of %s has the semaphore", name)
						k.AfterNamed("release-"+name, d, sem.V)
					}
					if sem.PThen("wake:stand-in-"+name, take, nil) {
						take(nil)
					}
				}
			}
			note("%s done", name)
		})
	}
	drive(k)
	log = append(log, fmt.Sprintf("end: now %v, stalled %v, sem %d, q %d, sunk %d, pending %d",
		k.Now(), k.Stalled(), sem.Count(), q.Len(), sunk.Len(), k.LivePending()))
	counts := k.Counts()
	k.Shutdown()
	return log, counts
}

func TestDispatchSequenceIsTheSameWhoeverDispatches(t *testing.T) {
	inChunks := func(n int) func(k *Kernel) {
		return func(k *Kernel) {
			for k.RunSteps(n, nil) == n {
			}
		}
	}
	ways := []struct {
		name  string
		drive func(k *Kernel)
	}{
		{"Step loop", func(k *Kernel) {
			for k.Step() {
			}
		}},
		{"Run", (*Kernel).Run},
		{"RunSteps(1)", inChunks(1)},
		{"RunSteps(7)", inChunks(7)},
		{"RunSteps(∞)", inChunks(math.MaxInt)},
	}
	var stepped, inline uint64
	for seed := int64(1); seed <= 200; seed++ {
		for _, choose := range []bool{false, true} {
			want, wantCounts := randomProgram(seed, choose, ways[0].drive)
			for _, d := range ways[1:] {
				got, counts := randomProgram(seed, choose, d.drive)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, chooser %v: %s and the Step loop disagree:\n%s\n--- Step loop:\n%s",
						seed, choose, d.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				if counts.Events != wantCounts.Events {
					t.Fatalf("seed %d, chooser %v: %s dispatched %d events, the Step loop %d",
						seed, choose, d.name, counts.Events, wantCounts.Events)
				}
				if d.name == "Run" {
					stepped += wantCounts.Resumes
					inline += counts.Resumes
				}
			}
		}
	}
	// The test means nothing unless the inline path ran: every resume
	// Run saved is a process that dispatched its own wake. (Five
	// processes interleaving at random leave few wakes adjacent to their
	// own park; what a real workload saves is pinned in internal/cluster.)
	if inline >= stepped*95/100 {
		t.Errorf("Run resumed coroutines %d times, the Step loop %d: parked processes dispatched next to nothing", inline, stepped)
	}
}

// An event past RunFor's deadline stays queued even when the process
// that would dispatch it inline is parked across the deadline.
func TestRunForLeavesLaterEventsToAParkedProcess(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	const d = 5 * time.Millisecond
	var ran []string
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Second)
		ran = append(ran, "sleeper")
	})
	k.After(d, func() { ran = append(ran, "at d") })
	k.After(d+1, func() { ran = append(ran, "at d+1ns") })
	k.RunFor(d)
	if want := []string{"at d"}; !slices.Equal(ran, want) || k.Now() != Time(d) {
		t.Fatalf("RunFor(%v) ran %q and stopped at %v, want %q and %v", d, ran, k.Now(), want, d)
	}
	if k.LivePending() != 2 {
		t.Fatalf("%d events left queued, want the callback at d+1ns and the sleeper's timer", k.LivePending())
	}
	k.Run()
	if want := []string{"at d", "at d+1ns", "sleeper"}; !slices.Equal(ran, want) {
		t.Fatalf("after Run: %q, want %q", ran, want)
	}
}

// tickers is a run long enough to stop in the middle of: three processes
// ticking at co-prime periods and a callback chain, logging every event.
func tickers(k *Kernel, log *[]string) {
	for i, period := range []Duration{2, 3, 5} {
		k.Spawn(fmt.Sprintf("ticker-%d", i), func(p *Proc) {
			for n := 0; n < 20; n++ {
				p.Sleep(period * time.Millisecond)
				*log = append(*log, fmt.Sprintf("%v %s", p.Now(), p.Name()))
			}
		})
	}
	var chain func()
	chain = func() {
		*log = append(*log, fmt.Sprintf("%v chain", k.Now()))
		if k.Now() < Time(50*time.Millisecond) {
			k.After(time.Millisecond, chain)
		}
	}
	k.After(0, chain)
}

func TestRunUntilStopsWhereAStepLoopWould(t *testing.T) {
	run := func(drive func(k *Kernel, done func() bool)) ([]string, Counts) {
		k := NewKernel(1)
		defer k.Shutdown()
		var log []string
		tickers(k, &log)
		drive(k, func() bool { return len(log) >= 40 })
		return log, k.Counts()
	}
	want, wantCounts := run(func(k *Kernel, done func() bool) {
		for !done() && k.Step() {
		}
	})
	got, counts := run((*Kernel).RunUntil)
	if !slices.Equal(got, want) || counts.Events != wantCounts.Events {
		t.Fatalf("RunUntil stopped after %d events with log\n%q\nthe Step loop after %d with\n%q",
			counts.Events, got, wantCounts.Events, want)
	}
	if len(want) != 40 {
		t.Fatalf("the run logged %d lines before stopping, want exactly 40", len(want))
	}
}

func TestRunStepsIsExactAndResumable(t *testing.T) {
	var whole, parts []string
	k := NewKernel(1)
	tickers(k, &whole)
	k.Run()
	total := int(k.Counts().Events)
	k.Shutdown()

	k = NewKernel(1)
	defer k.Shutdown()
	tickers(k, &parts)
	const n = 37
	if got := k.RunSteps(n, nil); got != n {
		t.Fatalf("RunSteps(%d) of a %d-event run dispatched %d", n, total, got)
	}
	if got := k.Counts().Events; got != n {
		t.Fatalf("kernel counted %d events after RunSteps(%d)", got, n)
	}
	if !slices.Equal(parts, whole[:len(parts)]) || len(parts) == len(whole) {
		t.Fatalf("the first %d events logged\n%q\nnot a proper prefix of the whole run's\n%q", n, parts, whole)
	}
	if got := k.RunSteps(math.MaxInt, nil); got != total-n {
		t.Fatalf("the second RunSteps dispatched %d events, want the remaining %d", got, total-n)
	}
	if !slices.Equal(parts, whole) {
		t.Fatalf("resumed run logged\n%q\nwant\n%q", parts, whole)
	}
}
