//go:build go1.23

package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestRankedLocksNestInOrder takes three ranked locks and a ranked
// resource in increasing rank, twice: releasing them empties the
// process's held stack, so the second round passes the check too.
func TestRankedLocksNestInOrder(t *testing.T) {
	k := NewKernel(1)
	a := NewSemaphore(k, 1).Ranked(1, "a")
	b := NewSemaphore(k, 1).Ranked(2, "b")
	c := NewSemaphore(k, 1).Ranked(3, "c")
	cpu := NewResource(k, 1).Ranked(4, "cpu")
	rounds := 0
	k.Spawn("nester", func(p *Proc) {
		for range 2 {
			a.P(p)
			b.P(p)
			c.P(p)
			cpu.Use(p, time.Millisecond)
			c.V()
			b.V()
			a.V()
			rounds++
		}
	})
	if r := recovered(k.Run); r != nil || rounds != 2 {
		t.Fatalf("in-order nesting: panic %v after %d rounds, want none after 2", r, rounds)
	}
}

// TestRankedLockOutOfOrderPanics: a P, an Acquire or a Use of a lock
// that does not rank above every lock the process holds panics, naming
// the process and both locks — an equal rank (a second lock of the
// same class) included.
func TestRankedLockOutOfOrderPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		take func(p *Proc, low *Semaphore, cpu *Resource)
		want string
	}{
		{"P", func(p *Proc, low *Semaphore, _ *Resource) { low.P(p) }, "low (rank 1)"},
		{"Acquire", func(p *Proc, _ *Semaphore, cpu *Resource) { cpu.Acquire(p) }, "cpu (rank 2)"},
		{"Use", func(p *Proc, _ *Semaphore, cpu *Resource) { cpu.Use(p, time.Millisecond) }, "cpu (rank 2)"},
	} {
		k := NewKernel(1)
		low := NewSemaphore(k, 1).Ranked(1, "low")
		high := NewSemaphore(k, 1).Ranked(2, "high")
		cpu := NewResource(k, 1).Ranked(2, "cpu")
		k.Spawn("inverter", func(p *Proc) {
			high.P(p)
			defer high.V()
			tc.take(p, low, cpu)
		})
		want := fmt.Sprintf(`sim: process "inverter" panicked: sim: process "inverter" takes %s while holding high (rank 2)`, tc.want)
		if got := recovered(k.Run); got != want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, want)
		}
		k.Shutdown()
	}
}

// TestRankedLockHandOffRecordsHolder: V hands a ranked lock to the
// process parked longest in P, which then holds it — a lower rank is
// refused it — and the releasing process holds it no more.
func TestRankedLockHandOffRecordsHolder(t *testing.T) {
	k := NewKernel(1)
	low := NewSemaphore(k, 1).Ranked(1, "low")
	high := NewSemaphore(k, 1).Ranked(2, "high")
	var released bool
	k.Spawn("first", func(p *Proc) {
		high.P(p)
		p.Sleep(time.Millisecond)
		high.V()
		low.P(p) // legal: first holds nothing now
		low.V()
		released = true
	})
	k.Spawn("second", func(p *Proc) {
		high.P(p) // parks until first's V hands the lock over
		defer high.V()
		p.Sleep(time.Millisecond)
		low.P(p)
	})
	want := `sim: process "second" panicked: sim: process "second" takes low (rank 1) while holding high (rank 2)`
	if got := recovered(k.Run); got != want || !released {
		t.Fatalf("panic %q (first released: %v), want %q", got, released, want)
	}
	k.Shutdown()
}

// TestRankCheckExemptions: PThen has no process, so it is checked
// against no rank and a lock it takes, at once or by V's hand-off, has
// no holder; unranked semaphores are never checked.
func TestRankCheckExemptions(t *testing.T) {
	k := NewKernel(1)
	low := NewSemaphore(k, 1).Ranked(1, "low")
	high := NewSemaphore(k, 1).Ranked(2, "high")
	plain := NewSemaphore(k, 1)
	handed, done := 0, false
	cb := func(any) { handed++ }
	k.Spawn("p", func(p *Proc) {
		high.P(p)
		if !low.PThen("cb", cb, nil) { // free: taken at once
			t.Error("PThen on a free lock did not take it")
		}
		if low.PThen("cb", cb, nil) { // held: queued
			t.Error("PThen on a held lock took it")
		}
		low.V() // hands low to the queued callback
		p.Yield()
		plain.P(p) // unranked under a ranked hold
		plain.V()
		low.V() // the callback's release
		high.V()
		low.P(p) // p holds no ranked lock now
		high.P(p)
		high.V()
		low.V()
		done = true
	})
	if r := recovered(k.Run); r != nil || !done || handed != 1 {
		t.Fatalf("panic %v, done %v, hand-offs %d; want none, true, 1", r, done, handed)
	}
}
