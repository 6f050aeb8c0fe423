//go:build go1.23

// Package sim implements a deterministic discrete-event simulation kernel.
//
// A Kernel owns a virtual clock and a set of processes. Exactly one
// process executes at any moment: each process is a runtime coroutine
// (iter.Pull) that the kernel switches into and that switches back when
// it parks, so no locking is needed anywhere in simulation code and runs
// are fully deterministic for a given seed.
//
// Processes are ordinary functions. They interact with virtual time
// exclusively through their *Proc handle: Sleep, Park, and the
// synchronization primitives in this package (Semaphore, Queue,
// Resource, Event). Wall-clock time never enters the simulation.
package sim

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// SortedKeys lists a map's keys in increasing order. Map iteration is
// the one nondeterminism Go injects into a single-threaded simulation,
// so every walk that sends, hashes, prints or picks a first match ranges
// over this instead of the map: same seed, same run, by construction.
// The vet map-order rule infers no exception, so the only
// unordered walks left in the simulation packages are this body and the
// loops that state on their own line why they cannot use it.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { // vet:ignore map-order — collected, then sorted before anyone looks
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Each runs run(0) … run(n-1) on min(GOMAXPROCS-1, n) goroutines, at
// least one, and returns the results in index order. It is how a harness
// runs simulations that share nothing: a kernel and everything built on
// it stays confined to the goroutine that calls run(i), so every run is
// as deterministic as it is alone. One processor is left to the garbage
// collector, which runs beside the simulations, and to whatever else the
// machine does: a worker per processor made the wall time of an
// evaluation depend on how much of the last core the box had to spare,
// and on a shared two-core box that is anything from all of it to none.
// So with GOMAXPROCS 1 or 2 the runs happen in index order, one at a
// time. Workers take indices from one counter, run every index they
// take, and take no more once a run has panicked; every index below a
// started one has therefore started too, so the lowest panicking index
// is the same at any worker count, and its value is re-raised here, in
// the caller, after the last worker has returned.
func Each[T any](n int, run func(i int) T) []T {
	out := make([]T, n)
	panics := make([]any, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	one := func(i int) {
		defer func() {
			if panics[i] = recover(); panics[i] != nil {
				failed.Store(true)
			}
		}()
		out[i] = run(i)
	}
	for w := min(max(runtime.GOMAXPROCS(0)-1, 1), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				one(i) // an index once taken is always run
			}
		}()
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	return out
}

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for virtual durations so that callers
// can write sim.Duration in signatures without importing time.
type Duration = time.Duration

// String formats a Time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns the time as floating-point milliseconds since start.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// WakeReason reports why a parked process resumed.
type WakeReason int

const (
	// WakeSignal means another process (or event callback) woke the process.
	WakeSignal WakeReason = iota + 1
	// WakeTimeout means the park's deadline expired first.
	WakeTimeout
)

type event struct {
	at     Time
	seq    uint64
	proc   *proc  // process to wake, or nil for a callback event
	epoch  uint64 // park epoch the wake targets (ignored for callbacks)
	reason WakeReason
	fn     func()    // callback; must not block
	fnArg  func(any) // callback taking arg; the closure-free hot-path form
	arg    any
	name   string // label for callback events (scheduling diagnostics)
}

// live reports whether dispatching the event would do anything: stale
// wakes (the process finished or left that park episode) are no-ops the
// scheduler may discard.
func (e *event) live() bool {
	return e.proc == nil || !e.proc.done && e.proc.epoch == e.epoch
}

// label renders the event for schedule diagnostics: the callback's name,
// or the woken process prefixed by why it wakes.
func (e *event) label() string {
	if e.proc == nil {
		if e.name != "" {
			return e.name
		}
		return "callback"
	}
	if e.reason == WakeTimeout {
		return "timer:" + e.proc.name
	}
	return "wake:" + e.proc.name
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). The wider fan-out
// roughly halves the tree depth of the binary container/heap it
// replaces, and inlined sift loops avoid the interface-dispatch cost of
// heap.Push/heap.Pop — the kernel's hottest operations at 1024 hosts.
// Each entry carries its event's keys, so a comparison reads the heap's
// own array instead of chasing a pointer per event, and a sift moves
// the hole, not two entries per level.
type eventHeap []heapEntry

type heapEntry struct {
	at  Time
	seq uint64
	e   *event
}

func (a *heapEntry) before(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *event) {
	x := heapEntry{at: e.at, seq: e.seq, e: e}
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
}

func (h *eventHeap) pop() *event {
	s := *h
	top := s[0].e
	last := len(s) - 1
	x := s[last]
	s[last] = heapEntry{}
	s = s[:last]
	*h = s
	if last == 0 {
		return top
	}
	i := 0
	for c := 1; c < last; c = 4*i + 1 {
		least := c
		for j, end := c+1, min(c+4, last); j < end; j++ {
			if s[j].before(&s[least]) {
				least = j
			}
		}
		if !s[least].before(&x) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = x
	return top
}

func (h eventHeap) Peek() *event  { return h[0].e }
func (h eventHeap) isEmpty() bool { return len(h) == 0 }

// Chooser resolves the kernel's scheduling nondeterminism. Whenever more
// than one live event is eligible at the current virtual instant, the
// kernel asks the chooser which to dispatch; in a real distributed
// system these alternatives are exactly the uncontrolled orderings —
// message arrivals, thread wakeups, timer expiries racing one another —
// so a Chooser that enumerates them turns the simulator into a model
// checker (see internal/mc).
//
// Choose receives the instant, the number of alternatives n (always
// ≥ 2), and a label function describing each for diagnostics. It must
// return an index in [0, n). A given kernel run is a pure function of
// its seed and the sequence of choices, so recording the choices made
// replays the run bit-identically.
type Chooser interface {
	Choose(now Time, n int, label func(i int) string) int
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	procs   map[int]*proc
	nextID  int
	rng     *rand.Rand
	chooser Chooser
	elig    []*event     // scratch buffer for same-instant alternatives
	free    []*event     // dispatched event records, recycled by newEvent
	idle    []*coroutine // coroutines whose process finished cleanly, recycled by SpawnAt

	// The stop condition of the driver call in progress (see poll): how
	// many more events it may dispatch, the instant past which it
	// dispatches none, and its caller's predicate, nil for none.
	budget   int
	deadline Time
	done     func() bool
	// next hands the kernel loop the event a parked process took from
	// poll but may not dispatch itself: another process's wake.
	next *event
	// running is the callback event being dispatched, nil outside one.
	running *event
	counts  Counts
}

// Counts are the kernel's deterministic work counters: the same program
// and seed give the same counts on any machine.
type Counts struct {
	// Events counts dispatched events — what a Step loop would count.
	Events uint64
	// Resumes counts switches into a process's coroutine.
	Resumes uint64
	// Spawns counts processes started.
	Spawns uint64
}

// Counts returns the work counters so far.
func (k *Kernel) Counts() Counts { return k.counts }

// NewKernel creates a kernel whose random source is seeded with seed.
// The same seed and the same program produce the same execution.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		procs: make(map[int]*proc),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulation context (inside processes or callbacks).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// schedule inserts an event and returns it (for cancellation).
func (k *Kernel) schedule(at Time, e *event) *event {
	if at < k.now {
		at = k.now
	}
	e.at = at
	e.seq = k.seq
	k.seq++
	k.events.push(e)
	return e
}

// newEvent returns a zeroed event record, recycling dispatched ones.
// Steady-state scheduling (timers, deliveries, wakes) allocates nothing:
// the pool reaches the simulation's high-water event count and stays
// there. Safe because nothing outside the kernel retains an *event past
// its dispatch.
func (k *Kernel) newEvent() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{}
}

// releaseEvent recycles a dispatched (or discarded) event record.
func (k *Kernel) releaseEvent(e *event) {
	*e = event{}
	k.free = append(k.free, e)
}

// SetChooser installs (or, with nil, removes) the scheduling chooser.
// It must be called before Run; changing the chooser mid-run would make
// recorded schedules meaningless.
func (k *Kernel) SetChooser(c Chooser) { k.chooser = c }

// HasChooser reports whether a scheduling chooser is installed. Hot
// paths use it to skip work that only feeds choice-point diagnostics —
// formatting event labels, most prominently.
func (k *Kernel) HasChooser() bool { return k.chooser != nil }

// After schedules fn to run at the current time plus d. fn runs in kernel
// context and must not block; use Spawn for blocking work.
func (k *Kernel) After(d Duration, fn func()) {
	e := k.newEvent()
	e.fn = fn
	k.schedule(k.now.Add(d), e)
}

// AfterNamed is After with a label naming the callback in schedule
// diagnostics (the model checker's choice-point labels).
func (k *Kernel) AfterNamed(name string, d Duration, fn func()) {
	e := k.newEvent()
	e.fn = fn
	e.name = name
	k.schedule(k.now.Add(d), e)
}

// AfterNamedArg schedules fn(arg) at the current time plus d — the
// allocation-free form of AfterNamed for hot paths: fn is a long-lived
// function value and arg a caller-pooled record, so scheduling builds
// no per-event closure.
func (k *Kernel) AfterNamedArg(name string, d Duration, fn func(any), arg any) {
	e := k.newEvent()
	e.fnArg = fn
	e.arg = arg
	e.name = name
	k.schedule(k.now.Add(d), e)
}

// Spawn creates a new process named name running fn. The process starts
// at the current virtual time (after already-scheduled events at this
// time). It may be called before Run or from any simulation context.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time.
func (k *Kernel) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	k.nextID++
	k.counts.Spawns++
	pr := &proc{k: k, id: k.nextID, name: name, fn: fn}
	pr.handle.p = pr
	k.procs[pr.id] = pr
	if n := len(k.idle); n > 0 {
		pr.co = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		pr.co.tenant = pr
	} else {
		pr.co = k.newCoroutine(pr)
	}
	pr.wakePending = true
	k.scheduleWake(at, pr, pr.epoch, WakeSignal)
	return &pr.handle
}

// coroutine is one runtime coroutine (iter.Pull) and the process it is
// running. It outlives a process that finishes cleanly: it then waits on
// the kernel's idle list for SpawnAt to bind the next process to it, so
// a short-lived process — a message handler, most often — costs neither
// a coroutine creation nor the regrowth of its stack. A coroutine whose
// process panicked, called runtime.Goexit or was killed ends with it and
// is never reused: the first two unwind through the loop below, and a
// stopped coroutine cannot be resumed.
type coroutine struct {
	next   func() (struct{}, bool) // switch into the coroutine until its process parks or ends
	stop   func()                  // end the coroutine: a pending yield returns false
	yield  func(struct{}) bool     // switch back to the kernel; set when the coroutine starts
	tenant *proc                   // the process bound to it; nil while idle
}

func (k *Kernel) newCoroutine(first *proc) *coroutine {
	co := &coroutine{tenant: first}
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		for {
			p := co.tenant
			p.run()
			if p.killed {
				return
			}
			co.tenant = nil
			k.idle = append(k.idle, co)
			// Back to the kernel, as the finished process's last switch;
			// resumed by the next tenant's first wake, or stopped.
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return co
}

// run executes the process body on the calling coroutine.
func (p *proc) run() {
	defer p.exit()
	fn := p.fn
	p.fn = nil
	fn(&p.handle)
}

// exit is run's deferred call, outermost of the process: it records the
// completion and turns the unwinding panic, if any, into the process's
// outcome. killSentinel is a clean exit and a panic during teardown is
// swallowed (the simulation's outcome was decided before Shutdown); any
// other panic continues, wrapped with the process name, out of the next
// call that resumed the process — into the caller of Run or Step. A panic
// that began in a callback the process was dispatching while parked is
// the callback's, not the process's, and is re-raised under its name.
func (p *proc) exit() {
	p.done = true
	delete(p.k.procs, p.id)
	if r := recover(); r != nil {
		if p.k.running != nil {
			panic(p.k.callbackPanic(r))
		}
		if _, kill := r.(killSentinel); !kill && !p.killed {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}
}

// Run executes events until none remain, then returns. Processes still
// parked when the event queue drains (for example a worker blocked on
// an empty queue) are left suspended; Stalled reports them.
//
// Run panics if a process panicked, re-raising the process's panic value
// wrapped with its name, and likewise for a callback.
func (k *Kernel) Run() { k.drive(math.MaxInt, math.MaxInt64, nil) }

// RunUntil executes events until done() reports true (checked after
// every event) or the queue drains. Use it when background activity —
// persistent retransmission, heartbeats — would otherwise keep the event
// queue non-empty forever.
func (k *Kernel) RunUntil(done func() bool) { k.drive(math.MaxInt, math.MaxInt64, done) }

// RunFor executes events until the clock would pass the given deadline,
// leaving later events queued, or until no events remain. The clock is
// advanced to the deadline even if the queue drains earlier.
func (k *Kernel) RunFor(d Duration) {
	deadline := k.now.Add(d)
	k.drive(math.MaxInt, deadline, nil)
	if k.now < deadline {
		k.now = deadline
	}
}

// Step dispatches the next event and reports whether one was dispatched.
// It is the single-step form of Run.
func (k *Kernel) Step() bool { return k.drive(1, math.MaxInt64, nil) == 1 }

// RunSteps is RunUntil bounded by an event count, for drivers — the
// model checker — that budget a run in events: it dispatches at most max
// events and returns how many it did. done may be nil.
func (k *Kernel) RunSteps(max int, done func() bool) int {
	return k.drive(max, math.MaxInt64, done)
}

// drive is the kernel loop behind every driver: dispatch events while
// poll allows. Between two events the loop is not the only one asking —
// a process that parks dispatches for itself (dispatchParked) — so the stop
// condition lives in the kernel, and the budget is counted wherever an
// event runs.
func (k *Kernel) drive(budget int, deadline Time, done func() bool) int {
	k.budget, k.deadline, k.done = budget, deadline, done
	defer func() {
		if k.running != nil { // a callback panicked on this stack
			panic(k.callbackPanic(recover()))
		}
	}()
	for {
		e := k.next
		if e != nil {
			k.next = nil
		} else if e = k.poll(); e == nil {
			return budget - k.budget
		}
		k.step(e, nil)
	}
}

// poll is the one gate every dispatch passes: it returns the next event
// if the driver in progress allows another — budget left, its predicate
// still false, the event not past its deadline — and nil otherwise. The
// checks come before the chooser is asked because its questions are
// themselves part of the recorded run. Without a chooser the next event
// is the heap minimum — earliest time, then scheduling order, the fixed
// deterministic default.
func (k *Kernel) poll() *event {
	if k.budget <= 0 || k.done != nil && k.done() {
		return nil
	}
	if k.chooser != nil {
		k.discardDead()
	}
	if k.events.isEmpty() || k.events[0].at > k.deadline {
		return nil
	}
	if k.chooser != nil {
		return k.choose()
	}
	return k.events.pop()
}

// scheduleWake schedules a process-wake event at time at.
func (k *Kernel) scheduleWake(at Time, p *proc, epoch uint64, reason WakeReason) {
	e := k.newEvent()
	e.proc = p
	e.epoch = epoch
	e.reason = reason
	k.schedule(at, e)
}

// discardDead drops canceled and stale events from the head of the
// queue so the chooser never sees a no-op as an alternative.
func (k *Kernel) discardDead() {
	for !k.events.isEmpty() && !k.events.Peek().live() {
		k.releaseEvent(k.events.pop())
	}
}

// choose is poll's last step under a chooser, the dead events already
// dropped from the head of a non-empty queue: every live event at the
// minimum time is a scheduling alternative and the chooser picks one;
// the others keep their original sequence numbers, so declining an event
// never reorders it relative to later arrivals at the same instant.
func (k *Kernel) choose() *event {
	t := k.events[0].at
	elig := k.elig[:0]
	for !k.events.isEmpty() && k.events[0].at == t {
		e := k.events.pop()
		if e.live() {
			elig = append(elig, e)
		} else {
			k.releaseEvent(e)
		}
	}
	k.elig = elig[:0] // keep the grown buffer for the next call
	idx := 0
	if len(elig) > 1 {
		idx = k.chooser.Choose(t, len(elig), func(i int) string { return elig[i].label() })
		if idx < 0 || idx >= len(elig) {
			idx = 0
		}
	}
	for i, e := range elig {
		if i != idx {
			k.events.push(e)
		}
	}
	return elig[idx]
}

// LivePending counts queued events that would actually do something if
// dispatched. The model checker folds it into its state hashes.
func (k *Kernel) LivePending() int {
	n := 0
	for _, ent := range k.events {
		if ent.e.live() {
			n++
		}
	}
	return n
}

// step dispatches one event — run its callback, or resume its process
// and wait for the process to park again or finish — then recycles the
// event record. on is the parked process whose stack this runs on, nil
// for the kernel loop; step reports whether the event woke on.
func (k *Kernel) step(e *event, on *proc) bool {
	k.budget--
	k.counts.Events++
	woke := k.dispatch(e, on)
	k.releaseEvent(e)
	return woke
}

func (k *Kernel) dispatch(e *event, on *proc) bool {
	k.now = e.at
	p := e.proc
	if p == nil {
		k.running = e
		if e.fn != nil {
			e.fn()
		} else {
			e.fnArg(e.arg)
		}
		k.running = nil
		return false
	}
	// The epoch gate drops stale wakes: any event targeting a park
	// episode the process has already left is a no-op. wakePending is
	// only a scheduling dedupe, not a correctness gate, because timer
	// events (Sleep, ParkTimeout) are scheduled without setting it.
	if p.done || p.epoch != e.epoch {
		return false
	}
	p.wakePending = false
	p.epoch++
	p.reason = e.reason
	if p == on {
		return true // its park returns: no switch at all
	}
	// Returns when the process parks (having registered its next wake
	// condition) or finishes; its panic, if any, comes out of this call.
	k.counts.Resumes++
	p.co.next()
	return false
}

// blocked is what park panics with inside a callback.
type blocked struct{}

// callbackPanic words the panic r that began in the callback k.running.
func (k *Kernel) callbackPanic(r any) string {
	name := k.running.label()
	k.running = nil
	if r == (blocked{}) {
		return fmt.Sprintf("sim: callback %q tried to block", name)
	}
	return fmt.Sprintf("sim: callback %q panicked: %v", name, r)
}

// killSentinel is the panic value that unwinds a process being killed by
// Shutdown; the process's exit handler recognizes it and reports a normal
// exit.
type killSentinel struct{}

// Shutdown force-terminates every process still parked, releasing their
// coroutines and the idle ones, and discards all pending events. It must
// only be called outside Run — after it returned, or after recovering
// the panic it re-raised. The kernel must not be used afterwards.
//
// Without Shutdown every parked process pins its stack and whatever
// it references for the life of the Go process; a model checker executing
// thousands of short simulations per second needs them reclaimed.
func (k *Kernel) Shutdown() {
	k.events = nil
	for len(k.procs) > 0 {
		for _, id := range SortedKeys(k.procs) {
			if p, ok := k.procs[id]; ok {
				k.kill(p)
			}
		}
	}
	k.events = nil // deferred cleanups may have scheduled wakes
	for _, co := range k.idle {
		co.stop()
	}
	k.idle = nil
}

// kill stops one process, and its coroutine with it. Parked, its pending
// park returns into the killed flag and unwinds via killSentinel:
// deferred cleanups run, and one that parks again unwinds again at once.
// Never started, its body simply never runs. The epoch moves on first,
// so a cleanup's V or Put skips the dying process's own waiter entry.
func (k *Kernel) kill(p *proc) {
	p.killed = true
	p.epoch++
	p.co.stop()
	p.done = true
	delete(k.procs, p.id)
}

// Stalled returns the names of processes that are still parked. After Run
// returns, a non-empty result that includes non-daemon workers usually
// indicates a deadlock in the simulated system.
func (k *Kernel) Stalled() []string {
	names := make([]string, 0, len(k.procs))
	for _, id := range SortedKeys(k.procs) {
		names = append(names, k.procs[id].name)
	}
	slices.Sort(names)
	return names
}

// proc is the kernel-internal process state.
type proc struct {
	k           *Kernel
	id          int
	name        string
	fn          func(*Proc) // the body; cleared when it starts
	handle      Proc        // the public handle, allocated with the process
	co          *coroutine  // the coroutine the process runs on
	reason      WakeReason  // why the kernel last resumed the process
	epoch       uint64
	wakePending bool
	done        bool
	killed      bool       // set by Shutdown; park unwinds via killSentinel
	held        *Semaphore // the ranked lock taken last of those held (Semaphore.Ranked)
}

// Proc is the handle a process function uses to interact with virtual
// time. It is valid only inside the process's own function.
type Proc struct {
	p *proc
}

// Name returns the process name given at Spawn.
func (pp *Proc) Name() string { return pp.p.name }

// Now returns the current virtual time.
func (pp *Proc) Now() Time { return pp.p.k.now }

// park suspends the process until it is woken. The caller must have
// arranged a wake (an event or membership in a waiter list) first.
func (pp *Proc) park() WakeReason {
	p := pp.p
	if p.killed {
		panic(killSentinel{})
	}
	if !p.k.dispatchParked(p) {
		p.co.yield(struct{}{})
		if p.killed {
			panic(killSentinel{})
		}
	}
	return p.reason
}

// dispatchParked makes a parked process the kernel: before p switches
// away it dispatches, on its own stack, whatever the kernel loop would
// dispatch next, for as long as that needs nobody else's stack —
// callbacks, stale wakes, and its own wake, on which it reports true
// and park returns without a switch. The first event that resumes
// another process is left in k.next for the kernel loop, which p then
// yields to. poll is asked before every event, so the sequence of
// dispatches, the chooser's questions and each driver's stopping point
// are what they would be with the loop doing it all. It is a function
// of its own so that park's frame, which the switch and a kill's
// unwinding sit on, stays as small as it was: a fresh coroutine has a
// 2 KB stack.
func (k *Kernel) dispatchParked(p *proc) bool {
	if k.running != nil {
		panic(blocked{})
	}
	for e := k.poll(); e != nil; e = k.poll() {
		if e.proc != nil && e.proc != p && e.live() {
			k.next = e
			return false
		}
		if k.step(e, p) {
			return true
		}
	}
	return false
}

// Exit terminates the calling process immediately as a normal
// completion: deferred functions run and the kernel records a clean
// exit, exactly as if the process function had returned. It is how
// simulated crash-stop failures unwind a dead host's threads — the
// process simply ceases at its next interaction with the machine.
func (pp *Proc) Exit() {
	panic(killSentinel{})
}

// Choose resolves an explicit n-way decision through the installed
// Chooser, making application-level nondeterminism — fault-injection
// points, for example — part of the recorded schedule that the model
// checker explores and replays. Without a chooser the kernel's seeded
// random source decides, so plain runs stay deterministic per seed.
func (k *Kernel) Choose(n int, label string) int {
	if n <= 1 {
		return 0
	}
	if k.chooser != nil {
		idx := k.chooser.Choose(k.now, n, func(i int) string {
			return fmt.Sprintf("%s#%d", label, i)
		})
		if idx < 0 || idx >= n {
			idx = 0
		}
		return idx
	}
	return k.rng.Intn(n)
}

// wakeToken identifies one parked episode of a process, so that stale
// wakes (after the process has already resumed) are ignored.
type wakeToken struct {
	p     *proc
	epoch uint64
}

// token captures the current park epoch; a subsequent wake with this
// token only fires if the process has not resumed in between.
func (pp *Proc) token() wakeToken { return wakeToken{p: pp.p, epoch: pp.p.epoch} }

// wake schedules a resume for the token's park episode at the current
// time. Duplicate wakes for the same episode are ignored.
func (k *Kernel) wake(t wakeToken, reason WakeReason) {
	p := t.p
	if p.done || p.epoch != t.epoch || p.wakePending {
		return
	}
	p.wakePending = true
	k.scheduleWake(k.now, p, t.epoch, reason)
}

// Sleep suspends the process for virtual duration d.
func (pp *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	k := pp.p.k
	t := pp.token()
	pp.p.wakePending = true
	k.scheduleWake(k.now.Add(d), t.p, t.epoch, WakeTimeout)
	pp.park()
}

// Yield reschedules the process at the current time, letting other
// processes scheduled for this instant run first.
func (pp *Proc) Yield() {
	k := pp.p.k
	t := pp.token()
	pp.p.wakePending = true
	k.scheduleWake(k.now, t.p, t.epoch, WakeSignal)
	pp.park()
}
