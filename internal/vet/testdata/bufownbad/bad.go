// Package bufownbad is the mutation-kill fixture for the ownership
// rule: eight hand-injected buffer-lifetime bugs, each carrying a
// marker comment, tagged with its bug number, on the line where the
// finding must anchor. None is in an ownership shape: a hold that is
// not a top-level Get followed by its deferred Put anchors at the Get.
// The mutation test asserts every marked line is reported, no unmarked
// line is, and every bug has a marker.
package bufownbad

import (
	"repro/internal/bufpool"
	"repro/internal/proto"
)

type sink struct{ buf []byte }

var global []byte

// Bug 1: double-Put on a straight-line path.
func doublePut() {
	buf := bufpool.Get(64) // want buf-own (bug 1)
	bufpool.Put(buf)
	bufpool.Put(buf)
}

// Bug 2: conditional Put followed by an unconditional one — double
// release whenever the branch is taken.
func branchDoublePut(cond bool) {
	buf := bufpool.Get(64) // want buf-own (bug 2)
	if cond {
		bufpool.Put(buf)
	}
	bufpool.Put(buf)
}

// Bug 3: leak on the early error return.
func leakOnError(err error) error {
	buf := bufpool.Get(64) // want buf-own (bug 3)
	if err != nil {
		return err
	}
	bufpool.Put(buf)
	return nil
}

// Bug 4: serve-style loop that drops the buffer on the error path —
// the next iteration re-acquires while the last buffer is still owned.
func loopLeak(frames []bool) {
	for _, bad := range frames {
		buf := bufpool.Get(64) // want buf-own (bug 4)
		if bad {
			continue
		}
		bufpool.Put(buf)
	}
}

// Bug 5: read after release.
func useAfterPut() byte {
	buf := bufpool.Get(64) // want buf-own (bug 5)
	bufpool.Put(buf)
	return buf[0]
}

// Bug 6: borrowed wire data stored to a field without TakeWire.
func borrowEscapeField(s *sink, wire []byte) error {
	m, err := proto.DecodeBorrow(wire)
	if err != nil {
		return err
	}
	s.buf = m.Data // want buf-own (bug 6)
	return nil
}

// Bug 7: borrowed wire data captured by a closure that runs after the
// handler returns and the pool may have recycled the buffer.
func borrowEscapeClosure(spawn func(func()), wire []byte) error {
	m, err := proto.DecodeBorrow(wire)
	if err != nil {
		return err
	}
	spawn(func() {
		global = append(global, m.Data...) // want buf-own (bug 7)
	})
	return nil
}

// Bug 8: acquire whose result is thrown away — unreleasable.
func discard() {
	bufpool.Get(64) // want buf-own (bug 8)
}
