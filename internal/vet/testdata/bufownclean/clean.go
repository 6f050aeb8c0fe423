// Package bufownclean exercises every sanctioned buffer-ownership shape
// on the transfer path. The test asserts the buf-own rule is silent on
// all of them — its false-positive budget here is zero.
package bufownclean

import (
	"repro/internal/bufpool"
	"repro/internal/proto"
)

type owner struct{ buf []byte }

// Owned by its body: the deferred release covers every return,
// including the early ones, and the buffer stays readable until exit.
func deferred(err error) error {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	if err != nil {
		return err
	}
	buf[0] = 1
	return nil
}

// Other defers may come between the Get and its deferred Put; they run
// after the release.
func otherDefersFirst(done func()) {
	buf := bufpool.Get(64)
	defer done()
	defer bufpool.Put(buf)
	copy(buf, "hello")
}

// A buffer held once per iteration is owned by a function literal.
func serveLoop(frames [][]byte, deliver func([]byte)) {
	for _, f := range frames {
		func() {
			buf := bufpool.Get(len(f))
			defer bufpool.Put(buf)
			copy(buf, f)
			deliver(buf)
		}()
	}
}

// Call arguments and composite-literal elements are loans: the callee
// may read the buffer, its body still releases it.
func loan(send func(*proto.Message) error) error {
	data := bufpool.Get(64)
	defer bufpool.Put(data)
	return send(&proto.Message{Data: data})
}

// SetWire gives the message the buffer straight from the pool; its
// consumer releases it with TakeWire.
func transfer(m *proto.Message) {
	m.SetWire(bufpool.Get(64))
}

// The handler detaches the wire buffer it was handed and releases it,
// on any branch.
func takeAndRelease(m *proto.Message, drop bool) {
	if drop {
		bufpool.Put(m.TakeWire())
		return
	}
	bufpool.Put(m.TakeWire())
}

// A deferred take keeps Data readable until the body returns.
func deferredTake(m *proto.Message, use func([]byte)) {
	defer bufpool.Put(m.TakeWire())
	use(m.Data)
}

// Owned by a field: AppendEncode extends the pooled buffer the field
// takes straight from the pool, and the field is released anywhere.
func fieldOwned(o *owner, m *proto.Message) error {
	var err error
	o.buf, err = m.AppendEncode(bufpool.Get(64)[:0])
	if err != nil {
		bufpool.Put(o.buf)
		o.buf = nil
	}
	return err
}

// Borrowed wire data may escape once TakeWire detaches the buffer.
func borrowResolved(o *owner, wire []byte) error {
	m, err := proto.DecodeBorrow(wire)
	if err != nil {
		return err
	}
	o.buf = m.TakeWire()
	return nil
}

// Borrowed wire data read in place, and passed to a callee as a loan.
func borrowRead(wire []byte, use func([]byte)) (int, error) {
	m, err := proto.DecodeBorrow(wire)
	if err != nil {
		return 0, err
	}
	use(m.Data)
	n := len(m.Data)
	return n, nil
}

// A crash path is not a leak: the deferred release runs as the process
// unwinds.
func panicPath(err error) {
	buf := bufpool.Get(4)
	defer bufpool.Put(buf)
	if err != nil {
		panic("fatal")
	}
}
