// Package sctrace records per-host DSM read/write traces and checks
// recorded executions for linearizability per access unit, which
// implies sequential consistency for every engine that records here.
//
// Li's MRSW write-invalidate protocol promises sequential consistency:
// some single interleaving of all hosts' reads and writes — consistent
// with each thread's program order — explains every value every read
// returned. Check asks for more: the interleaving must also respect
// real time (an operation that ended before another began comes first
// in it), with each recorded read judged as one access unit, so a read
// that returns some bytes of a write and not the rest is torn.
// Linearizability is local (Herlihy & Wing): a history is linearizable
// exactly when each group of operations on overlapping bytes is, and
// the checker judges the groups one at a time.
//
// In a deterministic discrete-event simulation the interleaving rarely
// has to be searched for: the kernel's dispatch order supplies one, the
// order of completion times. Check's witness follows that order and
// departs from it, greedily, only where a read disagrees (see Check);
// Exact is the bounded exhaustive search the greedy one is tested
// against.
//
// Values are recorded in a canonical representation (the DSM module
// converts native bytes to the Sun wire form before recording), so
// traces from heterogeneous hosts are directly comparable: a Firefly's
// little-endian VAX-float bytes and a Sun's big-endian IEEE bytes of the
// same value record identically. A coherence bug — a stale page read
// after an invalidation should have destroyed it, a lost update, a torn
// conversion — surfaces as a read whose bytes no interleaving explains.
package sctrace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// OpKind distinguishes reads from writes.
type OpKind uint8

const (
	// Read is a DSM load.
	Read OpKind = iota + 1
	// Write is a DSM store.
	Write
	// Acquire is a release-consistency acquire (lock P, event wait,
	// barrier release). Its Data carries the host's vector timestamp
	// after the acquire merged the incoming payload (rc.go).
	Acquire
	// Release is a release-consistency release (lock V, event set,
	// barrier arrival). Its Data carries the host's vector timestamp
	// after the release closed the interval.
	Release
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one recorded DSM access.
type Op struct {
	// Kind says whether this is a read or a write.
	Kind OpKind
	// Host is the host the access executed on.
	Host int
	// Proc identifies the program-order stream (thread) of the access;
	// operations with equal Proc must appear in program order.
	Proc string
	// Seq is the global record sequence number; it breaks timestamp
	// ties and preserves program order within a virtual instant.
	Seq uint64
	// Start and End are the access's interval on the execution's clock:
	// the simulation kernel's dispatch ordinal, which orders accesses
	// that virtual time would place in one instant. Equal readings
	// overlap. A write that was invoked and never completed has
	// End == Pending.
	Start, End int64
	// Addr is the DSM address of the first byte accessed.
	Addr uint32
	// Data holds the canonical bytes read or written.
	Data []byte
}

func (o Op) String() string {
	return fmt.Sprintf("%s host=%d proc=%s seq=%d [%d,%d] addr=%d len=%d",
		o.Kind, o.Host, o.Proc, o.Seq, o.Start, o.End, o.Addr, len(o.Data))
}

// Pending is the End of a write that was invoked and never completed:
// its writer crashed, or gave up, after its value may have reached
// other hosts. A pending write may take effect at any instant after its
// Start, or never.
const Pending int64 = math.MaxInt64

// Recorder accumulates a trace. It is not safe for concurrent use; the
// simulation kernel's one-process-at-a-time discipline is what makes a
// single recorder per cluster sound.
type Recorder struct {
	ops  []Op
	seq  uint64
	base int // operations Reset discarded, so a Handle stays an absolute index
}

// Handle names an operation Invoke recorded, for Complete.
type Handle int

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one completed operation, stamping its sequence
// number. The data bytes are copied.
func (r *Recorder) Record(kind OpKind, host int, proc string, start, end int64, addr uint32, data []byte) {
	r.Complete(r.Invoke(kind, host, proc, start, addr, data), end)
}

// Invoke appends an operation whose value is fixed but whose completion
// is not yet known, stamping its sequence number; it stays Pending until
// Complete. The data bytes are copied.
func (r *Recorder) Invoke(kind OpKind, host int, proc string, start int64, addr uint32, data []byte) Handle {
	r.seq++
	d := make([]byte, len(data))
	copy(d, data)
	r.ops = append(r.ops, Op{
		Kind: kind, Host: host, Proc: proc, Seq: r.seq,
		Start: start, End: Pending, Addr: addr, Data: d,
	})
	return Handle(r.base + len(r.ops) - 1)
}

// Complete sets the End of an invoked operation. Completing one that
// Reset discarded is a no-op.
func (r *Recorder) Complete(h Handle, end int64) {
	if i := int(h) - r.base; i >= 0 {
		r.ops[i].End = end
	}
}

// Ops returns the recorded trace in record order.
func (r *Recorder) Ops() []Op { return r.ops }

// Len returns the number of recorded operations.
func (r *Recorder) Len() int { return len(r.ops) }

// Reset discards the trace, pending operations included (sequence
// numbers keep increasing, so concatenated traces stay totally
// ordered).
func (r *Recorder) Reset() {
	r.base += len(r.ops)
	r.ops = nil
}

// Violation is one linearizability failure: a read that returned a
// value no interleaving explains, or an operation breaking program
// order.
type Violation struct {
	// Op is the offending operation.
	Op Op
	// Addr is the first inconsistent byte's DSM address (reads).
	Addr uint32
	// Got and Want are the byte read and the byte the witness
	// interleaving holds there when the read cannot be placed (reads).
	Got, Want byte
	// Msg explains the failure.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("sctrace: %s: %s", v.Msg, v.Op)
}

// Check validates a trace for linearizability per access unit (see the
// package comment) and returns the violations found (nil for a
// linearizable trace). Every acceptance rests on a witness interleaving
// Check has built, so it never accepts a trace Exact rejects; it may
// reject one Exact accepts (exact checking is NP-complete, Gibbons &
// Korach 1997), and the tests keep a table of the shapes that do.
//
// Each address group's witness follows the interval rule: a read may
// return a write that started before the read ended and that no other
// write to the same bytes superseded before the read started. The
// witness grows one operation at a time, from those whose real-time
// predecessors are all placed: a read whenever the current state
// matches it; otherwise the placeable operation that ends first, or —
// when that is a read the state does not match — the placeable writes
// that supply its bytes, earliest-ending first. Pending writes enter
// only to supply a read. With no read out of step, the witness is the
// order of completion times, ties broken by record sequence. A read
// placed after a write it did not see is thereby judged against it
// too: no read may return an older value than a read that finished
// before it began (read-to-read order). Unwritten bytes read as zero
// (DSM pages start zero-filled). Program order is verified per Proc
// stream: a stream's operations must carry non-decreasing timestamps in
// record order.
func Check(ops []Op) []Violation {
	violations := programOrder(ops)
	for _, g := range addressGroups(ops) {
		violations = append(violations, witness(g)...)
	}
	return violations
}

// programOrder checks that each stream's record order agrees with time,
// that no operation ends before it starts and that each is a read or a
// write. A pending write holds its stream's place from its Start.
func programOrder(ops []Op) []Violation {
	type stream struct {
		host int
		proc string
	}
	type last struct {
		seq uint64
		end int64
	}
	var violations []Violation
	prev := make(map[stream]last)
	for _, op := range ops {
		key := stream{op.Host, op.Proc}
		if l, ok := prev[key]; ok && (op.Seq <= l.seq || op.End < l.end) {
			violations = append(violations, Violation{
				Op:  op,
				Msg: fmt.Sprintf("program order violated on stream %d/%s", op.Host, op.Proc),
			})
		}
		l := last{op.Seq, op.End}
		if op.End == Pending {
			l.end = op.Start
		}
		prev[key] = l
		if op.End < op.Start {
			violations = append(violations, Violation{Op: op, Msg: "operation ends before it starts"})
		}
		if op.Kind != Read && op.Kind != Write {
			violations = append(violations, Violation{Op: op, Msg: "unknown operation kind"})
		}
	}
	return violations
}

// apply stores a write's bytes into state.
func apply(state map[uint32]byte, w Op) {
	for i, b := range w.Data {
		state[w.Addr+uint32(i)] = b
	}
}

// mismatch returns the offset of the first byte of read r that state
// does not hold, and whether there is one.
func mismatch(state map[uint32]byte, r Op) (int, bool) {
	for i, got := range r.Data {
		if state[r.Addr+uint32(i)] != got {
			return i, true
		}
	}
	return 0, false
}

// precedes reports whether a must come before b in every interleaving:
// a ended before b started, or at the instant b started on b's own
// stream, recorded first.
func precedes(a, b Op) bool {
	if a.End != b.Start {
		return a.End < b.Start
	}
	return a.Host == b.Host && a.Proc == b.Proc && a.Seq < b.Seq
}

// addressGroups splits a trace's reads and writes into the groups of
// operations on overlapping bytes, each in record order. Groups are
// ordered by their lowest address.
func addressGroups(ops []Op) [][]Op {
	idx := make([]int, 0, len(ops))
	for i, op := range ops {
		if (op.Kind == Read || op.Kind == Write) && len(op.Data) > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Addr < ops[idx[b]].Addr })
	var groups [][]int
	var hi uint32
	for _, i := range idx {
		op := ops[i]
		if len(groups) == 0 || op.Addr >= hi {
			groups = append(groups, nil)
		}
		g := len(groups) - 1
		groups[g] = append(groups[g], i)
		hi = max(hi, op.Addr+uint32(len(op.Data)))
	}
	out := make([][]Op, len(groups))
	all := make([]Op, 0, len(idx))
	for g, members := range groups {
		sort.Ints(members)
		for _, i := range members {
			all = append(all, ops[i])
		}
		out[g] = all[len(all)-len(members):]
	}
	return out
}

// witness builds one address group's greedy witness interleaving (see
// Check) and returns a violation for each read it cannot place.
func witness(ops []Op) []Violation {
	var violations []Violation
	state := make(map[uint32]byte)
	live := make([]int, len(ops)) // indexes of the operations not yet placed
	for i := range live {
		live[i] = i
	}
	place := func(i int) {
		for k, j := range live {
			if j == i {
				live = append(live[:k], live[k+1:]...)
				return
			}
		}
	}
	// placeable reports whether no live operation must precede ops[i],
	// given m, the earliest End among the live completed operations.
	placeable := func(i int, m int64) bool {
		if ops[i].Start != m {
			return ops[i].Start < m
		}
		for _, j := range live {
			if j != i && precedes(ops[j], ops[i]) {
				return false
			}
		}
		return true
	}
	for {
		// first: the live operation that ends first — a completed one
		// while any is left; only pending writes are left otherwise, and
		// they may stay out of the witness.
		first := -1
		for _, j := range live {
			if ops[j].End != Pending && (first < 0 || ops[j].End < ops[first].End ||
				ops[j].End == ops[first].End && ops[j].Seq < ops[first].Seq) {
				first = j
			}
		}
		if first < 0 {
			return violations
		}
		// A read the state matches is placed at once: reads change
		// nothing, so placing one as early as it may go never hurts.
		read := -1
		for _, j := range live {
			if ops[j].Kind == Read && placeable(j, ops[first].End) {
				if _, bad := mismatch(state, ops[j]); !bad {
					read = j
					break
				}
			}
		}
		if read >= 0 {
			place(read)
			continue
		}
		x := ops[first]
		if x.Kind == Write {
			apply(state, x)
			place(first)
			continue
		}
		// x must be placed before anything that starts after it ends:
		// supply its bytes from placeable writes, earliest-ending first.
		for {
			off, bad := mismatch(state, x)
			if !bad {
				break
			}
			a := x.Addr + uint32(off)
			w := -1
			for _, j := range live {
				op := ops[j]
				if op.Kind == Write && a >= op.Addr && a < op.Addr+uint32(len(op.Data)) &&
					op.Data[a-op.Addr] == x.Data[off] && placeable(j, x.End) &&
					(w < 0 || op.End < ops[w].End || op.End == ops[w].End && op.Seq < ops[w].Seq) {
					w = j
				}
			}
			if w < 0 {
				violations = append(violations, Violation{
					Op: x, Addr: a, Got: x.Data[off], Want: state[a],
					Msg: fmt.Sprintf("read of addr %d returned %#02x, witness order requires %#02x", a, x.Data[off], state[a]),
				})
				break
			}
			apply(state, ops[w])
			place(w)
		}
		place(first)
	}
}

// ErrBudget reports that Exact gave up on an address group.
var ErrBudget = errors.New("sctrace: exact search exceeded its budget")

// Exact decides linearizability per access unit exactly, by a
// Wing–Gong search over each address group's interleavings with the
// states already explored remembered (Lowe's cache), and reports
// whether the reads and writes of ops are linearizable. It is bounded:
// a group of more than 64 operations, or one whose search visits more
// than budget states, returns ErrBudget. A pending write may be placed
// anywhere after its Start, or left out. Program order beyond real time
// is not judged here; Check does that.
func Exact(ops []Op, budget int) (bool, error) {
	for _, g := range addressGroups(ops) {
		ok, err := exactGroup(g, budget)
		if err != nil || !ok {
			return ok, err
		}
	}
	return true, nil
}

// exactGroup runs Exact's search over one address group.
func exactGroup(ops []Op, budget int) (bool, error) {
	if len(ops) > 64 {
		return false, ErrBudget
	}
	var need uint64 // the completed operations, which every witness must place
	for i, op := range ops {
		if op.End != Pending {
			need |= 1 << i
		}
	}
	seen := make(map[string]bool)
	steps := 0
	var search func(done uint64, state map[uint32]byte) (bool, error)
	search = func(done uint64, state map[uint32]byte) (bool, error) {
		if done&need == need {
			return true, nil
		}
		key := fmt.Sprint(done, stateKey(state))
		if seen[key] {
			return false, nil
		}
		seen[key] = true
		if steps++; steps > budget {
			return false, ErrBudget
		}
		for i, op := range ops {
			if done&(1<<i) != 0 || !exactPlaceable(ops, done, i) {
				continue
			}
			next := state
			if op.Kind == Read {
				if _, bad := mismatch(state, op); bad {
					continue
				}
			} else {
				next = make(map[uint32]byte, len(state)+len(op.Data))
				for a, b := range state {
					next[a] = b
				}
				apply(next, op)
			}
			if ok, err := search(done|1<<i, next); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	return search(0, map[uint32]byte{})
}

// exactPlaceable reports whether no unplaced operation must precede
// ops[i].
func exactPlaceable(ops []Op, done uint64, i int) bool {
	for j, op := range ops {
		if j != i && done&(1<<j) == 0 && precedes(op, ops[i]) {
			return false
		}
	}
	return true
}

// stateKey renders a byte state canonically, for the search cache.
func stateKey(state map[uint32]byte) string {
	addrs := make([]uint32, 0, len(state))
	for a, b := range state {
		if b != 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	key := make([]byte, 0, 5*len(addrs))
	for _, a := range addrs {
		key = append(key, byte(a>>24), byte(a>>16), byte(a>>8), byte(a), state[a])
	}
	return string(key)
}

// Report renders violations as a human-readable multi-line string, at
// most limit entries (0 means all).
func Report(violations []Violation, limit int) string {
	if len(violations) == 0 {
		return "sctrace: trace is sequentially consistent"
	}
	if limit <= 0 || limit > len(violations) {
		limit = len(violations)
	}
	out := fmt.Sprintf("sctrace: %d violation(s):\n", len(violations))
	for _, v := range violations[:limit] {
		out += "  " + v.String() + "\n"
	}
	if limit < len(violations) {
		out += fmt.Sprintf("  ... and %d more\n", len(violations)-limit)
	}
	return out
}
