package remoteop

// Event handlers: requests answered from local state, served without a
// process. Mermaid served its network interrupt-style, protocol work
// serialised on one engine per host (PAPER.md); a request that never
// waits for anything but its CPU charge and the wire needs no coroutine
// either. Its CPU charge, its reply's send costs, the medium wait and
// the wire time each become one kernel event at the instant, in the
// order and under the label the wake of a handler process would have
// had, so a run — its timeline, its recorded schedules, the model
// checker's state hashes — is the one a process would have made.

import (
	"fmt"
	"sync"

	"repro/internal/proto"
	"repro/internal/sim"
)

// EventHandler serves one request kind without a process. Neither
// function may block.
type EventHandler struct {
	// Charge, if set, runs first and prices the request: d of CPU time
	// held on res (res nil: the time alone), taken before Reply runs.
	// ok false drops the request unanswered — a multicast bystander's
	// silence.
	Charge func(req *proto.Message) (res *sim.Resource, d sim.Duration, ok bool)
	// Reply does the handler's work once the charge is paid and returns
	// the answer, which is sent and cached as Endpoint.Reply sends and
	// caches it, or nil to send none.
	Reply func(req *proto.Message) *proto.Message
}

// HandleEvent registers h as the event handler of a request kind,
// replacing whatever Handle or HandleEvent registered for it before.
// h.Reply must be set.
func (e *Endpoint) HandleEvent(kind proto.Kind, h EventHandler) {
	if h.Reply == nil {
		panic(fmt.Sprintf("remoteop: HandleEvent(%v) without a Reply", kind))
	}
	e.register(kind, service{ev: h})
}

// exchange is one request an event handler serves, from its start event
// to its reply's last fragment: the argument of every event of the
// chain, at stage pc. Records are pooled, so serving builds no closure.
type exchange struct {
	e     *Endpoint
	h     EventHandler
	req   *proto.Message
	names kindNames
	pc    stage
	res   *sim.Resource
	d     sim.Duration
	resp  *proto.Message
	key   dedupKey
	out   outgoing
	idx   int // next fragment to send
}

// stage is where the next event resumes an exchange.
type stage int

const (
	stageCharge stage = iota // price the request, take the CPU
	stageHeld                // the CPU is held: pay the charge
	stageReply               // the charge is paid: answer
	stageSetup               // MsgSetup is paid
	stageFrag                // before fragment idx (or after the last)
	stageSend                // fragment idx's cost is paid: transmit
	stageSent                // fragment idx is on its way
)

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// serve starts an exchange for req with the event a Handler's process
// would have been started by: now, under the process's wake label.
func (e *Endpoint) serve(h EventHandler, req *proto.Message) {
	x := exchangePool.Get().(*exchange)
	*x = exchange{e: e, h: h, req: req, names: e.namesOf(req.Kind, true)}
	e.k.AfterNamedArg(x.names.wake, 0, resume, x)
}

// resume is every event of every exchange.
func resume(a any) { a.(*exchange).run() }

// run advances the exchange until it waits for an event or ends. Each
// wait is scheduled exactly where the handler process would have parked
// — a zero duration schedules nothing, as Sleep does not — and labelled
// as that process's wake or timer.
func (x *exchange) run() {
	e, k := x.e, x.e.k
	for {
		switch x.pc {
		case stageCharge:
			x.pc = stageHeld
			if x.h.Charge != nil {
				var ok bool
				if x.res, x.d, ok = x.h.Charge(x.req); !ok {
					x.end()
					return
				}
				if x.res != nil && !x.res.AcquireThen(x.names.wake, resume, x) {
					return
				}
			}
		case stageHeld:
			x.pc = stageReply
			if x.d > 0 {
				k.AfterNamedArg(x.names.timer, x.d, resume, x)
				return
			}
		case stageReply:
			if x.res != nil {
				x.res.Release()
			}
			if x.resp = x.h.Reply(x.req); x.resp == nil {
				x.end()
				return
			}
			x.key = e.cacheReply(x.req, x.resp)
			if e.crashed {
				// Where a handler process would unwind: a dead host's
				// reply never leaves it.
				x.end()
				return
			}
			x.out = e.encode(HostID(x.req.From), x.resp)
			x.pc = stageSetup
			if d := e.params.MsgSetup.Of(e.kind); x.out.bulk && d > 0 {
				k.AfterNamedArg(x.names.timer, d, resume, x)
				return
			}
		case stageSetup:
			if x.out.bulk {
				e.stats.BulkBytes += len(x.resp.Data)
			}
			x.pc = stageFrag
		case stageFrag:
			if x.idx == x.out.total {
				e.finish(x.resp)
				e.replySent(x.key, x.resp, x.out.sum)
				x.end()
				return
			}
			x.pc = stageSend
			if d := e.params.FragCost.Of(e.kind); x.out.bulk && d > 0 {
				k.AfterNamedArg(x.names.timer, d, resume, x)
				return
			}
		case stageSend:
			x.pc = stageSent
			later, err := e.ifc.SendThen(e.frame(&x.out, x.idx), x.names.wake, x.names.timer, resume, x)
			if err != nil {
				panic(fmt.Sprintf("remoteop: send: %v", err))
			}
			if later {
				return
			}
		case stageSent:
			e.stats.FragmentsSent++
			x.idx++
			x.pc = stageFrag
		}
	}
}

// end recycles the exchange.
func (x *exchange) end() {
	*x = exchange{}
	exchangePool.Put(x)
}
