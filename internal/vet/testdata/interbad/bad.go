// Package interbad is the cross-function mutation-kill fixture: buffer
// bugs split between a caller and a helper, which the ownership rule
// reports where either side leaves its shape. Every finding carries a
// marker comment on its line (a buffer bug's tagged with its number);
// the mutation test asserts each marked line is reported with the
// marked rule and no unmarked line is.
package interbad

import (
	"repro/internal/bufpool"
	"repro/internal/proto"
)

var kept []byte

// ---- buffer helpers: each leaves the ownership shape on its own
// line, whatever its caller does -------------------------------------

// alloc returns a pooled buffer its caller owns.
func alloc(n int) []byte {
	return bufpool.Get(n) // want buf-own
}

// allocDeep returns alloc's buffer — ownership must propagate through
// two levels of helpers.
func allocDeep(n int) []byte {
	return alloc(n)
}

// consume returns its argument to the pool.
func consume(b []byte) {
	bufpool.Put(b) // want buf-own
}

// keep stores its argument into package-level state that outlives the
// call.
func keep(b []byte) {
	kept = b // want buf-own (bug 5)
}

// ---- injected buffer bugs ------------------------------------------

// Bug 1: leak through a helper — alloc's result is owned, and the
// error path drops it before the explicit Put.
func leakThroughHelper(err error) error {
	buf := alloc(64)
	if err != nil {
		return err
	}
	bufpool.Put(buf) // want buf-own (bug 1)
	return nil
}

// Bug 2: leak through a two-level helper chain.
func leakDeepChain(cond bool) {
	buf := allocDeep(32)
	if cond {
		return
	}
	bufpool.Put(buf) // want buf-own (bug 2)
}

// Bug 3: double-Put split across caller and callee — consume already
// released the buffer.
func splitDoublePut() {
	buf := bufpool.Get(64) // want buf-own (bug 3)
	consume(buf)
	bufpool.Put(buf)
}

// Bug 4: read after a release that happens inside the callee.
func useAfterHelperPut() byte {
	buf := bufpool.Get(64) // want buf-own (bug 4)
	consume(buf)
	return buf[0]
}

// Bug 5: borrowed wire data passed to a callee that stores it — the
// pool recycles the backing buffer while kept still aliases it.
func borrowToStoringCallee(wire []byte) error {
	m, err := proto.DecodeBorrow(wire)
	if err != nil {
		return err
	}
	keep(m.Data)
	return nil
}
