//go:build go1.23

package sim

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

// popWaiter removes and returns the oldest waiter, shifting the rest
// down in place. Reslicing the head away (ws = ws[1:]) would shrink the
// backing array one slot per wakeup until every park re-allocates it;
// hot paths (frame delivery at 1024 hosts) park and wake every cycle,
// so the dequeue must keep the array.
func popWaiter(ws *[]wakeToken) wakeToken {
	w := *ws
	t := w[0]
	last := len(w) - 1
	copy(w, w[1:])
	w[last] = wakeToken{}
	*ws = w[:last]
	return t
}

// Semaphore is a counting semaphore with FIFO wakeup order, providing the
// P and V operations of the paper's distributed synchronization facility
// (this is the local, single-kernel building block).
type Semaphore struct {
	k       *Kernel
	count   int
	waiters []wakeToken
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(k *Kernel, initial int) *Semaphore {
	return &Semaphore{k: k, count: initial}
}

// Count returns the current token count (not counting parked waiters).
func (s *Semaphore) Count() int { return s.count }

// P acquires one token, blocking the calling process until available.
func (s *Semaphore) P(p *Proc) {
	if s.count > 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, p.token())
	p.park()
}

// TryP acquires one token without blocking; it reports success.
func (s *Semaphore) TryP() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// V releases one token, waking the longest-parked waiter if any. The
// token is handed directly to the woken process.
func (s *Semaphore) V() {
	for len(s.waiters) > 0 {
		t := popWaiter(&s.waiters)
		if t.p.done || t.p.epoch != t.epoch {
			continue // waiter vanished (timeout or kill); drop it
		}
		s.k.wake(t, WakeSignal)
		return
	}
	s.count++
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
	waiters  []wakeToken
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
	for len(q.waiters) > 0 {
		t := popWaiter(&q.waiters)
		if t.p.done || t.p.epoch != t.epoch {
			continue
		}
		q.k.wake(t, WakeSignal)
		return
	}
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
		q.waiters = append(q.waiters, p.token())
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
		q.waiters = append(q.waiters, p.token())
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
	for i, t := range q.waiters {
		if t.p == p.p {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
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

// Capacity returns the total number of servers.
func (r *Resource) Capacity() int { return r.cap }

// InUse returns how many servers are currently held.
func (r *Resource) InUse() int { return r.cap - r.sem.Count() }

// Acquire takes one server, blocking until available.
func (r *Resource) Acquire(p *Proc) { r.sem.P(p) }

// Release returns one server.
func (r *Resource) Release() { r.sem.V() }

// Use acquires a server, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Event is a broadcast flag: processes wait until it is set; setting it
// wakes all current and future waiters until Reset.
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

// Reset clears the event so subsequent Wait calls block again.
func (e *Event) Reset() { e.set = false }

// Wait blocks the process until the event is set.
func (e *Event) Wait(p *Proc) {
	for !e.set {
		e.waiters = append(e.waiters, p.token())
		p.park()
	}
}
