// Package bufownclean exercises every sanctioned buffer-lifecycle
// pattern on the transfer path. The mutation-kill test asserts the
// buf-own analysis is silent on all of them — its false-positive
// budget here is zero.
package bufownclean

import (
	"repro/internal/bufpool"
	"repro/internal/proto"
)

type owner struct{ buf []byte }

// Balanced get/put on a straight line.
func balanced() {
	buf := bufpool.Get(64)
	copy(buf, "hello")
	bufpool.Put(buf)
}

// Deferred release covers every return, including the early ones, and
// the buffer stays readable until exit.
func deferred(err error) error {
	buf := bufpool.Get(64)
	defer bufpool.Put(buf)
	if err != nil {
		return err
	}
	buf[0] = 1
	return nil
}

// Released on each branch separately.
func branches(cond bool) {
	buf := bufpool.Get(64)
	if cond {
		bufpool.Put(buf)
		return
	}
	bufpool.Put(buf)
}

// SetWire transfers ownership into the message; its consumer releases
// via TakeWire.
func transfer(m *proto.Message) {
	buf := bufpool.Get(64)
	m.SetWire(buf)
}

// The handler detaches the wire buffer it was handed and releases it.
func takeAndRelease(m *proto.Message) {
	bufpool.Put(m.TakeWire())
}

// AppendEncode extends the pooled buffer (the result aliases it);
// storing the result to a field transfers ownership, the error path
// releases.
func fieldTransfer(o *owner, m *proto.Message) error {
	buf, err := m.AppendEncode(bufpool.Get(64)[:0])
	if err != nil {
		bufpool.Put(buf)
		return err
	}
	o.buf = buf
	return nil
}

// Call arguments and composite-literal elements are loans: the callee
// may read the buffer, the caller still releases it.
func loan(send func(*proto.Message) error) error {
	data := bufpool.Get(64)
	err := send(&proto.Message{Data: data})
	bufpool.Put(data)
	return err
}

// Serve-style loop: released on the error path, transferred otherwise
// — no iteration re-acquires while the last buffer is live.
func serveLoop(frames [][]byte, deliver func(*proto.Message)) {
	m := &proto.Message{}
	for _, f := range frames {
		buf := bufpool.Get(len(f))
		n := copy(buf, f)
		if n == 0 {
			bufpool.Put(buf)
			continue
		}
		m.SetWire(buf)
		deliver(m)
	}
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

// A crash path is not a leak: the process is gone.
func panicPath(err error) {
	buf := bufpool.Get(4)
	if err != nil {
		panic("fatal")
	}
	bufpool.Put(buf)
}

// produce's result transfers ownership to the caller (inferred).
func produce(n int) []byte {
	out := bufpool.Get(n)
	return out
}

func consume() {
	buf := produce(8)
	bufpool.Put(buf)
}

// tryProduce reports ok = false without a buffer; the analysis pairs
// the result with the ok variable so the failure branch is not a leak.
func tryProduce(n int) ([]byte, bool) {
	if n == 0 {
		return nil, false
	}
	return bufpool.Get(n), true
}

// The ok-guard idiom: observing ok == false un-acquires the buffer.
func guarded(n int) {
	buf, ok := tryProduce(n)
	if !ok {
		return
	}
	bufpool.Put(buf)
}

// Same guard inside a loop: the continue on the failure branch must not
// read as a loop leak.
func guardedLoop(sizes []int, m *proto.Message) {
	for _, n := range sizes {
		buf, ok := tryProduce(n)
		if !ok {
			continue
		}
		m.SetWire(buf)
	}
}
