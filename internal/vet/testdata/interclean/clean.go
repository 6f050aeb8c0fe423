// Package interclean pins the cross-function false-positive budget at
// zero: helpers that read a loaned buffer, recursion and a method call
// passing the loan on, interface dispatch, a buffer owned by a function
// literal, a consistent lock order and a remote call under no holds.
// The fixture must be completely silent under the full rule set.
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

// ---- locks: one global order, no cycle -----------------------------

type sema struct{}

func (s *sema) P() {}
func (s *sema) V() {}

type pair struct {
	a sema
	b sema
}

// both always takes a before b — the only edge is a→b.
func (p2 *pair) both() {
	p2.a.P()
	p2.b.P()
	p2.b.V()
	p2.a.V()
}

func (p2 *pair) bOnly() {
	p2.b.P()
	p2.b.V()
}

// ---- remote call under no holds ------------------------------------

type Endpoint struct{}

type Message struct {
	Kind int
}

const KindPing = 1

func (e *Endpoint) Call(target int, m *Message) {}

func (e *Endpoint) Handle(kind int, h func(*Message)) {}

type station struct {
	mu sema
	ep *Endpoint
}

func (st *station) register() {
	st.ep.Handle(KindPing, st.handlePing)
}

// handlePing takes the per-station lock, but pings are sent lock-free.
func (st *station) handlePing(m *Message) {
	st.mu.P()
	st.mu.V()
}

func (st *station) ping() {
	st.ep.Call(1, &Message{Kind: KindPing})
}
