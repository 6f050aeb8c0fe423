// Package bufpool recycles the byte buffers of the page-transfer hot
// path: message encode buffers, reassembled wire buffers, and page-size
// staging copies. Steady-state page transfers hit the free lists and
// allocate nothing.
//
// The pool is deliberately not sync.Pool: Put would have to box the
// slice header into an interface, which itself allocates, defeating the
// zero-allocation contract. Instead each power-of-two size class keeps a
// small mutex-guarded LIFO of retired buffers. The lists are bounded, so
// a burst simply falls through to the garbage collector; losing track of
// a buffer is always safe, merely a pool miss later.
//
// Ownership is checked where it is broken, at run time and always: Put
// fills a retired buffer's first poisonLen bytes with poison, so a read
// through a reference kept past its Put sees 0xA5A5A5A5 instead of the
// data it expects, and Put panics when the buffer it is handed is
// already on its class's free list (a double Put). A double Put with a
// Get in between, or a stale read past the poisoned prefix, goes
// unseen.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	// minClassBits..maxClassBits span 64 B to 128 KiB, covering proto
	// headers up to multi-fragment encodes of the largest page size.
	minClassBits = 6
	maxClassBits = 17
	numClasses   = maxClassBits - minClassBits + 1
	// perClass bounds each free list; beyond it Put drops the buffer.
	perClass = 64
	// Put fills the first poisonLen bytes of every buffer it retires
	// with poison.
	poisonLen = 64
	poison    = 0xA5
)

type class struct {
	mu   sync.Mutex
	free [][]byte
}

var (
	classes      [numClasses]class
	poisonPrefix [poisonLen]byte
)

func init() {
	for i := range classes {
		classes[i].free = make([][]byte, 0, perClass)
	}
	for i := range poisonPrefix {
		poisonPrefix[i] = poison
	}
}

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	if c := max(bits.Len(uint(n-1))-minClassBits, 0); c < numClasses {
		return c
	}
	return -1
}

// Get returns a buffer of length n. Its contents are arbitrary — callers
// overwrite every byte they use. Oversized requests fall back to the
// allocator.
func Get(n int) []byte {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n) // vet:ignore hot-alloc — oversized fallback, beyond the pool's classes
	}
	cl := &classes[c]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		b := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	// Pool miss: mint a buffer of the full class size so it recycles
	// cleanly whatever length it is requested at next.
	return make([]byte, n, 1<<(minClassBits+c)) // vet:ignore hot-alloc — the pool's own refill
}

// Put retires a buffer for reuse, poisoning its first poisonLen bytes
// (see the package doc). nil and tiny buffers are dropped; so is
// anything beyond the class bound. Put never retains a reference on
// failure, so double-use bugs cannot arise from dropping. It panics
// when b is already on its class's free list.
func Put(b []byte) {
	if cap(b) < 1<<minClassBits {
		return
	}
	b = b[:cap(b)]
	copy(b, poisonPrefix[:])
	// File by capacity, under the largest class the buffer fully covers,
	// so a future Get of that class size always fits.
	cl := &classes[min(bits.Len(uint(cap(b)))-1-minClassBits, numClasses-1)]
	cl.mu.Lock()
	for _, f := range cl.free {
		if &f[0] == &b[0] {
			cl.mu.Unlock()
			panic("bufpool: buffer put twice")
		}
	}
	if len(cl.free) < perClass {
		cl.free = append(cl.free, b)
	}
	cl.mu.Unlock()
}
