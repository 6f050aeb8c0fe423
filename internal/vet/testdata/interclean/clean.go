// Package interclean pins the interprocedural false-positive budget at
// zero: recursion and mutual recursion, method values, interface
// dispatch, closures, helper-released buffers, a consistent lock
// order and a remote call under no holds. The fixture must be
// completely silent under the full rule set.
package interclean

import "repro/internal/bufpool"

// ---- recursion: the SCC fixpoint must converge, and the release
// effect must be visible through the recursive call -------------------

// releaseRec returns the buffer to the pool on every path — through
// the base case directly and through the recursive call otherwise.
func releaseRec(b []byte, depth int) {
	if depth == 0 {
		bufpool.Put(b)
		return
	}
	releaseRec(b, depth-1)
}

func recCaller() {
	buf := bufpool.Get(64)
	releaseRec(buf, 3)
}

// ---- mutual recursion: the fixpoint converges over a two-member SCC

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

// ---- method call releasing a buffer --------------------------------

type pool struct{}

func (pl *pool) done(b []byte) {
	bufpool.Put(b)
}

func methodRelease() {
	var pl pool
	buf := bufpool.Get(16)
	pl.done(buf)
}

// ---- interface dispatch: unknowable callee, argument stays a loan —
// the Put after the call must not read as a double release ------------

type consumer interface {
	Consume(b []byte)
}

func viaInterface(c consumer) {
	buf := bufpool.Get(16)
	c.Consume(buf)
	bufpool.Put(buf)
}

// ---- closure: an owned buffer captured by a returned literal is a
// transfer, not a leak ------------------------------------------------

func closureRelease() func() {
	buf := bufpool.Get(16)
	return func() {
		bufpool.Put(buf)
	}
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
