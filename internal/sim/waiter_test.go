package sim

// A Semaphore's waiters are parked processes and callbacks standing in
// for processes, in one FIFO (waitQueue). These tests hold the callback
// form to the process form: the same turn, the same instant, the label
// the process's wake would carry.

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestProcAndCallbackWaitersShareOneFIFO(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	var order []string
	got := func(a any) { order = append(order, a.(string)) }
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("w%d", i)
		if i%2 == 0 {
			k.Spawn(name, func(p *Proc) {
				sem.P(p)
				order = append(order, name)
			})
		} else {
			k.After(0, func() {
				if sem.PThen("wake:"+name, got, name) {
					t.Errorf("%s took a token from an empty semaphore", name)
				}
			})
		}
	}
	k.Spawn("poster", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(time.Millisecond)
			sem.V()
		}
	})
	k.Run()
	if want := []string{"w0", "w1", "w2", "w3", "w4", "w5"}; !slices.Equal(order, want) {
		t.Fatalf("tokens handed over in order %v, want %v", order, want)
	}
	if sem.Count() != 0 {
		t.Fatalf("%d tokens left over", sem.Count())
	}
	sem.V()
	if !sem.PThen("wake:late", got, "late") || sem.Count() != 0 {
		t.Fatal("PThen queued for a token that was free")
	}
}

func TestCallbackWaiterEventCarriesItsLabel(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 1)
	if !r.AcquireThen("wake:first", func(any) {}, nil) {
		t.Fatal("a free resource was not taken at once")
	}
	ran := false
	if r.AcquireThen("wake:stand-in", func(any) { ran = true }, nil) {
		t.Fatal("a held resource was taken")
	}
	k.After(time.Millisecond, r.Release)
	k.Step() // the release
	if len(k.events) != 1 {
		t.Fatalf("%d events queued after the release, want the hand-over alone", len(k.events))
	}
	if e := k.events.Peek(); e.label() != "wake:stand-in" || e.at != Time(time.Millisecond) {
		t.Fatalf("hand-over event %q at %v, want \"wake:stand-in\" at 1ms", e.label(), e.at)
	}
	k.Run()
	if !ran || r.InUse() != 1 {
		t.Fatalf("callback ran %v with %d servers in use, want true and 1", ran, r.InUse())
	}
}

// TestWaitQueueDrainsWithoutShifting holds a pop to moving the head: a
// broadcast's 1 023 parked acks once cost a shift of the whole queue
// per wake.
func TestWaitQueueDrainsWithoutShifting(t *testing.T) {
	const n = 1023
	var q waitQueue
	for i := 0; i < n; i++ {
		q.push(waiter{arg: i})
	}
	backing, capacity := &q.ws[0], cap(q.ws)
	moved := 0
	for i := 0; i < n; i++ {
		before := q.head
		if w := q.pop(); w.arg != i {
			t.Fatalf("pop %d returned waiter %v", i, w.arg)
		}
		if q.head == 0 {
			moved += q.len() // the window moved down
		} else if q.head != before+1 {
			t.Fatalf("pop %d moved the head from %d to %d", i, before, q.head)
		}
	}
	if moved >= n {
		t.Errorf("draining %d waiters moved %d entries, want fewer than %d", n, moved, n)
	}
	if q.len() != 0 || &q.ws[:1][0] != backing || cap(q.ws) != capacity {
		t.Error("the drained queue let go of its backing array")
	}
}

func TestSpawnsAreCounted(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			k.Spawn("child", func(*Proc) {})
		}
	})
	k.Run()
	if got := k.Counts().Spawns; got != 4 {
		t.Fatalf("Counts().Spawns = %d, want 4", got)
	}
}
