//go:build go1.23

package sim

import "fmt"

// This file provides the synchronization primitives used by simulated
// code: counting semaphores, FIFO message queues, counted resources, and
// one-shot events. All of them operate purely in virtual time.

// Waiter is an opaque handle to one parked episode of a process. External
// code (for example a protocol engine matching responses to requests)
// can capture a Waiter before parking and wake it later.
type Waiter struct {
	t wakeToken
}

// PrepareWait captures a wake handle for the process's next Park. The
// returned Waiter may be woken at most once, from any simulation context.
func (pp *Proc) PrepareWait() Waiter { return Waiter{t: pp.token()} }

// Park suspends the process until the Waiter captured by PrepareWait is
// woken. It returns the reason supplied to Wake.
func (pp *Proc) Park() WakeReason { return pp.park() }

// ParkTimeout suspends the process until its Waiter is woken or d
// elapses, whichever is first. It returns WakeTimeout on expiry.
func (pp *Proc) ParkTimeout(d Duration) WakeReason {
	k := pp.p.k
	t := pp.token()
	k.scheduleWake(k.now.Add(d), t.p, t.epoch, WakeTimeout)
	return pp.park()
}

// Wake resumes the parked episode identified by w. Waking an episode that
// already resumed (or was woken before) has no effect.
func (k *Kernel) Wake(w Waiter, reason WakeReason) { k.wake(w.t, reason) }

// waiter is one entry of a Semaphore's or a TypedQueue's FIFO: the park
// episode of a process, or — t.p nil — a callback that stands in for
// one, scheduled as fn(arg) under name when its turn comes.
type waiter struct {
	t    wakeToken
	fn   func(any)
	arg  any
	name string
}

// gone reports whether a process waiter has left the park it queued for
// (a timeout or a kill): the turn passes to the next waiter.
func (w *waiter) gone() bool {
	return w.t.p != nil && (w.t.p.done || w.t.p.epoch != w.t.epoch)
}

// waitQueue is a FIFO of waiters kept, like TypedQueue's items, as the
// window ws[head:] of one backing array: a pop moves the head, not the
// entries, and the window moves down only once the head has passed the
// middle, so draining n waiters copies fewer than n entries in all.
// Shifting the rest down on every pop cost a broadcast's 1 023 parked
// acks half a million entry moves.
type waitQueue struct {
	ws   []waiter
	head int
}

func (q *waitQueue) len() int { return len(q.ws) - q.head }

func (q *waitQueue) push(w waiter) { q.ws = append(q.ws, w) }

// pop removes and returns the oldest waiter; the queue must not be empty.
func (q *waitQueue) pop() waiter {
	w := q.ws[q.head]
	q.ws[q.head] = waiter{}
	q.head++
	if 2*q.head >= len(q.ws) {
		n := copy(q.ws, q.ws[q.head:])
		clear(q.ws[n:])
		q.ws, q.head = q.ws[:n], 0
	}
	return w
}

// next pops waiters until one is still waiting and hands it its turn:
// a process is woken, a callback scheduled now under its name — the
// instant, order and label the wake of the process it stands in for
// would have. It reports false if nobody was waiting.
func (q *waitQueue) next(k *Kernel) bool {
	for q.len() > 0 {
		w := q.pop()
		if w.gone() {
			continue
		}
		if w.t.p == nil {
			k.AfterNamedArg(w.name, 0, w.fn, w.arg)
		} else {
			k.wake(w.t, WakeSignal)
		}
		return true
	}
	return false
}

// Semaphore is a counting semaphore with FIFO wakeup order, providing the
// P and V operations of the paper's distributed synchronization facility
// (this is the local, single-kernel building block).
type Semaphore struct {
	k       *Kernel
	count   int
	waiters waitQueue
	// A ranked semaphore (Ranked) is a lock with a place in its
	// package's lock order; rank 0 is unranked. holder is the process
	// that took it with P and below the lock that process held before
	// it, so a process's held ranked locks form a stack through below.
	rank   int
	name   string
	holder *proc
	below  *Semaphore
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(k *Kernel, initial int) *Semaphore {
	return &Semaphore{k: k, count: initial}
}

// Ranked places s, a semaphore used as a lock (one token), at rank in a
// lock order and names it for the report; rank must be positive. A
// process may then take s with P only while every ranked lock it holds
// has a lower rank: P panics otherwise, naming the process and both
// locks. Holding locks only in increasing rank is what rules out a
// hold-and-wait cycle among the processes of one kernel. PThen and
// TryP waiters have no process, so they hold no rank. Ranked returns s.
func (s *Semaphore) Ranked(rank int, name string) *Semaphore {
	s.rank, s.name = rank, name
	return s
}

// Count returns the current token count (not counting parked waiters).
func (s *Semaphore) Count() int { return s.count }

// P acquires one token, blocking the calling process until available.
func (s *Semaphore) P(p *Proc) {
	if s.rank != 0 {
		s.checkRank(p.p)
	}
	if s.count > 0 {
		s.count--
	} else {
		s.waiters.push(waiter{t: p.token()})
		p.park()
	}
	if s.rank != 0 {
		s.holder, s.below, p.p.held = p.p, p.p.held, s
	}
}

// checkRank panics if p holds a ranked lock that does not rank below s.
// The locks p holds were taken in increasing rank, so the last one
// taken ranks highest.
func (s *Semaphore) checkRank(p *proc) {
	if h := p.held; h != nil && h.rank >= s.rank {
		panic(fmt.Sprintf("sim: process %q takes %s (rank %d) while holding %s (rank %d)",
			p.name, s.name, s.rank, h.name, h.rank))
	}
}

// release removes a ranked s from its holder's stack of held locks.
func (s *Semaphore) release() {
	for l := &s.holder.held; *l != nil; l = &(*l).below {
		if *l == s {
			*l = s.below
			break
		}
	}
	s.holder, s.below = nil, nil
}

// PThen is P for a waiter with no process. It takes a token now and
// reports true, or queues fn(arg) and reports false; V then hands the
// token over by scheduling fn(arg) as the event labelled name, in the
// FIFO turn and at the instant a parked process's wake would take. So
// name is the label that wake would carry: "wake:" and the name of the
// process the callback stands in for.
func (s *Semaphore) PThen(name string, fn func(any), arg any) bool {
	if s.count > 0 {
		s.count--
		return true
	}
	s.waiters.push(waiter{fn: fn, arg: arg, name: name})
	return false
}

// TryP acquires one token without blocking; it reports success.
func (s *Semaphore) TryP() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// V releases one token, handing it directly to the longest-waiting
// waiter if any.
func (s *Semaphore) V() {
	if s.holder != nil {
		s.release()
	}
	if !s.waiters.next(s.k) {
		s.count++
	}
}

// TypedQueue is an unbounded FIFO with blocking Get — the delivery
// surface for simulated network interfaces. The element type is
// concrete because storing hot-path items (netsim frames) as any would
// box every element. It reuses its buffer as a sliding window instead
// of reslicing it away, so steady-state Put/Get cycles allocate
// nothing.
//
// A consumer that never blocks anywhere else needs no process: SetSink
// names a callback, Arm asks for it once — at the instant of the next
// Put, as the event a parked getter's wake would have been — and the
// callback drains with TryGet and arms again when it finds the queue
// empty.
type TypedQueue[T any] struct {
	k        *Kernel
	items    []T
	head     int
	waiters  waitQueue
	sink     func()
	sinkName string
	armed    bool
}

// NewTypedQueue creates an empty typed queue.
func NewTypedQueue[T any](k *Kernel) *TypedQueue[T] { return &TypedQueue[T]{k: k} }

// Len returns the number of queued items.
func (q *TypedQueue[T]) Len() int { return len(q.items) - q.head }

// Put appends an item and wakes one waiting getter. It never blocks and
// is safe to call from kernel callbacks (for example delivery events).
func (q *TypedQueue[T]) Put(v T) {
	if q.head == len(q.items) && q.head > 0 {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, v)
	if q.armed {
		q.armed = false
		q.k.AfterNamed(q.sinkName, 0, q.sink)
		return
	}
	q.waiters.next(q.k)
}

// SetSink makes fn, labelled name in schedules, the queue's event-driven
// consumer. A queue has a sink or getters, not both.
func (q *TypedQueue[T]) SetSink(name string, fn func()) { q.sinkName, q.sink = name, fn }

// Arm schedules the sink at the next Put. One Put consumes the arming.
func (q *TypedQueue[T]) Arm() { q.armed = true }

// TryGet removes and returns the oldest item; ok is false if there is none.
func (q *TypedQueue[T]) TryGet() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	return v, true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty.
func (q *TypedQueue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.waiters.push(waiter{t: p.token()})
		p.park()
	}
	v, _ := q.TryGet()
	return v
}

// GetTimeout is Get with a deadline; ok is false if d elapsed first.
func (q *TypedQueue[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	deadline := p.Now().Add(d)
	for q.Len() == 0 {
		remaining := deadline.Sub(p.Now())
		if remaining <= 0 {
			var zero T
			return zero, false
		}
		q.waiters.push(waiter{t: p.token()})
		if p.ParkTimeout(remaining) == WakeTimeout {
			q.removeWaiter(p)
			if q.Len() == 0 {
				var zero T
				return zero, false
			}
		}
	}
	return q.TryGet()
}

func (q *TypedQueue[T]) removeWaiter(p *Proc) {
	ws := &q.waiters
	for i := ws.head; i < len(ws.ws); i++ {
		if ws.ws[i].t.p == p.p {
			ws.ws = append(ws.ws[:i], ws.ws[i+1:]...)
			return
		}
	}
}

// Queue is the queue of arbitrary items.
type Queue = TypedQueue[any]

// NewQueue creates an empty queue of arbitrary items.
func NewQueue(k *Kernel) *Queue { return NewTypedQueue[any](k) }

// Resource models a pool of identical servers (CPUs, a network cable)
// acquired for timed use. Use is the common pattern: acquire, hold for a
// virtual duration, release.
type Resource struct {
	sem *Semaphore
	cap int
}

// NewResource creates a resource with the given capacity.
func NewResource(k *Kernel, capacity int) *Resource {
	return &Resource{sem: NewSemaphore(k, capacity), cap: capacity}
}

// Ranked places a one-server resource in a lock order, as
// Semaphore.Ranked does a lock: Acquire and Use check the rank. It
// returns r.
func (r *Resource) Ranked(rank int, name string) *Resource {
	r.sem.Ranked(rank, name)
	return r
}

// Capacity returns the total number of servers.
func (r *Resource) Capacity() int { return r.cap }

// InUse returns how many servers are currently held.
func (r *Resource) InUse() int { return r.cap - r.sem.Count() }

// Acquire takes one server, blocking until available.
func (r *Resource) Acquire(p *Proc) { r.sem.P(p) }

// AcquireThen is Acquire for a waiter with no process (Semaphore.PThen):
// it reports true if the server is taken now, or queues fn(arg) to run,
// as the event labelled name, when the server is handed over.
func (r *Resource) AcquireThen(name string, fn func(any), arg any) bool {
	return r.sem.PThen(name, fn, arg)
}

// Release returns one server.
func (r *Resource) Release() { r.sem.V() }

// Use acquires a server, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Event is a broadcast flag: processes wait until it is set; setting it
// wakes all current and future waiters.
type Event struct {
	k       *Kernel
	set     bool
	waiters []wakeToken
}

// NewEvent creates an unset event.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// Set sets the event and wakes every waiter.
func (e *Event) Set() {
	if e.set {
		return
	}
	e.set = true
	for _, t := range e.waiters {
		e.k.wake(t, WakeSignal)
	}
	e.waiters = nil
}

// Wait blocks the process until the event is set.
func (e *Event) Wait(p *Proc) {
	for !e.set {
		e.waiters = append(e.waiters, p.token())
		p.park()
	}
}
