// Package interclean pins the cross-function false-positive budget at
// zero: helpers that read a loaned buffer, recursion and a method call
// passing the loan on, interface dispatch and a buffer owned by a
// function literal. The ownership rule must stay silent on all of it.
package interclean

import "repro/internal/bufpool"

// ---- recursion: the callee reads a loan its caller's body owns -----

func sumRec(b []byte, depth int) int {
	if depth == 0 {
		return len(b)
	}
	return sumRec(b, depth-1)
}

func recCaller() int {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	return sumRec(buf, 3)
}

// ---- method call reading a loaned buffer ---------------------------

type pool struct{ n int }

func (pl *pool) count(b []byte) { pl.n += len(b) }

func methodLoan() {
	var pl pool
	buf := bufpool.Get(16)
	defer bufpool.Put(buf)
	pl.count(buf)
}

// ---- interface dispatch: an unknowable callee, the argument a loan --

type consumer interface {
	Consume(b []byte)
}

func viaInterface(c consumer) {
	buf := bufpool.Get(16)
	defer bufpool.Put(buf)
	c.Consume(buf)
}

// ---- a function literal owns the buffer it runs with ---------------

func closureOwned(after func(func())) {
	after(func() {
		buf := bufpool.Get(16)
		defer bufpool.Put(buf)
		buf[0] = 1
	})
}
