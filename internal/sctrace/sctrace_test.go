package sctrace

import (
	"strings"
	"testing"
)

// w and r build trace operations compactly for hand-crafted tests.
func w(host int, proc string, seq uint64, start, end int64, addr uint32, data ...byte) Op {
	return Op{Kind: Write, Host: host, Proc: proc, Seq: seq, Start: start, End: end, Addr: addr, Data: data}
}

func r(host int, proc string, seq uint64, start, end int64, addr uint32, data ...byte) Op {
	return Op{Kind: Read, Host: host, Proc: proc, Seq: seq, Start: start, End: end, Addr: addr, Data: data}
}

func TestConsistentTraceAccepted(t *testing.T) {
	trace := []Op{
		w(0, "main", 1, 0, 10, 100, 1, 2, 3, 4),
		r(1, "t1", 2, 20, 30, 100, 1, 2, 3, 4),
		w(1, "t1", 3, 30, 40, 102, 9),
		r(0, "main", 4, 50, 60, 100, 1, 2, 9, 4),
		r(2, "t2", 5, 70, 80, 104, 0, 0), // never written: zero
	}
	if v := Check(trace); len(v) != 0 {
		t.Fatalf("consistent trace rejected: %s", Report(v, 0))
	}
}

func TestStaleReadRejected(t *testing.T) {
	// Host 1 reads the old value long after host 0's write completed —
	// the signature of a missed invalidation.
	trace := []Op{
		w(0, "main", 1, 0, 10, 100, 7),
		w(0, "main", 2, 20, 30, 100, 8),
		r(1, "t1", 3, 100, 110, 100, 7),
	}
	v := Check(trace)
	if len(v) == 0 {
		t.Fatal("stale read accepted")
	}
	if v[0].Addr != 100 || v[0].Got != 7 || v[0].Want != 8 {
		t.Fatalf("wrong violation: %+v", v[0])
	}
}

func TestNeverWrittenValueRejected(t *testing.T) {
	trace := []Op{
		w(0, "main", 1, 0, 10, 100, 5),
		r(1, "t1", 2, 20, 30, 100, 42), // 42 was never written
	}
	if v := Check(trace); len(v) == 0 {
		t.Fatal("read of a never-written value accepted")
	}
}

func TestOverlappingWriteAdmitsEitherOutcome(t *testing.T) {
	// The read's interval overlaps the second write: sequential
	// consistency admits both the old and the new value.
	old := []Op{
		w(0, "main", 1, 0, 10, 100, 7),
		w(0, "main", 2, 40, 60, 100, 8),
		r(1, "t1", 3, 45, 65, 100, 7), // saw the pre-write value
	}
	if v := Check(old); len(v) != 0 {
		t.Fatalf("racy read of old value rejected: %s", Report(v, 0))
	}
	fresh := []Op{
		w(0, "main", 1, 0, 10, 100, 7),
		w(0, "main", 2, 40, 60, 100, 8),
		r(1, "t1", 3, 45, 65, 100, 8), // saw the new value
	}
	if v := Check(fresh); len(v) != 0 {
		t.Fatalf("racy read of new value rejected: %s", Report(v, 0))
	}
	// But a value from two writes back is not admissible.
	ancient := []Op{
		w(0, "main", 1, 0, 10, 100, 6),
		w(0, "main", 2, 20, 30, 100, 7),
		w(0, "main", 3, 40, 60, 100, 8),
		r(1, "t1", 4, 45, 65, 100, 6),
	}
	if v := Check(ancient); len(v) == 0 {
		t.Fatal("two-generations-stale read accepted")
	}
}

func TestProgramOrderViolationRejected(t *testing.T) {
	trace := []Op{
		{Kind: Read, Host: 0, Proc: "main", Seq: 5, Start: 50, End: 60, Addr: 0, Data: []byte{0}},
		{Kind: Read, Host: 0, Proc: "main", Seq: 6, Start: 10, End: 20, Addr: 0, Data: []byte{0}},
	}
	v := Check(trace)
	if len(v) == 0 {
		t.Fatal("program-order violation accepted")
	}
	if !strings.Contains(v[0].Msg, "program order") {
		t.Fatalf("wrong violation message: %q", v[0].Msg)
	}
}

func TestRecorderCopiesData(t *testing.T) {
	rec := NewRecorder()
	buf := []byte{1, 2, 3}
	rec.Record(Write, 0, "main", 0, 1, 0, buf)
	buf[0] = 99
	if rec.Ops()[0].Data[0] != 1 {
		t.Fatal("recorder aliased caller's buffer")
	}
	if rec.Len() != 1 {
		t.Fatalf("Len = %d", rec.Len())
	}
	rec.Record(Read, 1, "t", 2, 3, 0, []byte{1, 2, 3})
	if got := rec.Ops()[1].Seq; got != 2 {
		t.Fatalf("seq = %d, want 2", got)
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("Reset did not clear ops")
	}
	rec.Record(Write, 0, "main", 4, 5, 0, []byte{9})
	if got := rec.Ops()[0].Seq; got != 3 {
		t.Fatalf("seq after reset = %d, want 3 (monotonic)", got)
	}
}

func TestMultiByteTornReadRejected(t *testing.T) {
	// A 4-byte value written atomically; a much later read sees half of
	// the old value and half of the new — a torn conversion or a lost
	// partial update.
	trace := []Op{
		w(0, "main", 1, 0, 10, 200, 0xAA, 0xAA, 0xAA, 0xAA),
		w(0, "main", 2, 20, 30, 200, 0xBB, 0xBB, 0xBB, 0xBB),
		r(1, "t1", 3, 100, 110, 200, 0xBB, 0xBB, 0xAA, 0xAA),
	}
	if v := Check(trace); len(v) == 0 {
		t.Fatal("torn read accepted")
	}
}

func TestReportFormatting(t *testing.T) {
	if got := Report(nil, 0); !strings.Contains(got, "sequentially consistent") {
		t.Fatalf("empty report: %q", got)
	}
	v := Check([]Op{
		w(0, "main", 1, 0, 10, 100, 7),
		r(1, "a", 2, 20, 30, 100, 1),
		r(1, "b", 3, 20, 30, 100, 2),
	})
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %d", len(v))
	}
	rep := Report(v, 1)
	if !strings.Contains(rep, "2 violation") || !strings.Contains(rep, "1 more") {
		t.Fatalf("truncated report: %q", rep)
	}
}

func TestInFlightWriteAdmitted(t *testing.T) {
	// A read overlapping a write may return it even though the write
	// completes after the read does: the write takes effect inside the
	// read's interval. The checker used to reject exactly this shape.
	trace := []Op{
		w(0, "w", 1, 0, 10, 100, 4),
		r(1, "r", 2, 20, 50, 100, 5),
		w(0, "w", 3, 15, 100, 100, 5),
	}
	if v := Check(trace); len(v) != 0 {
		t.Fatalf("read of an in-flight write rejected: %s", Report(v, 0))
	}
}

func TestTornOverlappingReadRejected(t *testing.T) {
	// The second write overlaps the read, so either whole value is
	// admissible — but not one byte of each: a read is one access unit.
	trace := []Op{
		w(0, "w", 1, 0, 10, 100, 1, 1),
		r(1, "r", 3, 25, 35, 100, 2, 1),
		w(0, "w", 2, 20, 30, 100, 2, 2),
	}
	if v := Check(trace); len(v) == 0 {
		t.Fatal("a read of one new and one old byte accepted")
	}
}

func TestTiedIntervalsHideRealTimeEdge(t *testing.T) {
	// A writer's access ends, a semaphore the trace does not see hands
	// control to a reader on another host, and the read returns the old
	// value: a lost update. With every cost zero, virtual time stamps
	// both accesses [0, 0]; they overlap, so the read may come first and
	// the trace is admitted. Stamped with the dispatch ordinal, the
	// write ends before the read begins and the read is convicted.
	tied := []Op{
		w(0, "w0", 1, 0, 0, 100, 1),
		r(2, "main", 2, 0, 0, 100, 0),
	}
	if v := Check(tied); len(v) != 0 {
		t.Fatalf("tied trace rejected: %s", Report(v, 0))
	}
	ordered := []Op{
		w(0, "w0", 1, 3, 5, 100, 1),
		r(2, "main", 2, 9, 9, 100, 0),
	}
	if v := Check(ordered); len(v) != 1 || v[0].Got != 0 || v[0].Want != 1 {
		t.Fatalf("ordinal-stamped lost write: got %s, want one violation reading 0 for 1", Report(v, 0))
	}
}

func TestReadToReadInversionRejected(t *testing.T) {
	// Both reads overlap the write of 2, but the first to finish saw it:
	// a read that starts later may not return the older value.
	trace := []Op{
		w(0, "w", 1, 0, 10, 100, 1),
		r(1, "a", 2, 45, 50, 100, 2),
		r(2, "b", 3, 52, 55, 100, 1),
		w(0, "w", 4, 40, 60, 100, 2),
	}
	v := Check(trace)
	if len(v) != 1 || v[0].Op.Proc != "b" {
		t.Fatalf("new-old inversion: got %s, want one violation on the second read", Report(v, 0))
	}
}

func TestPendingWrite(t *testing.T) {
	pending := Op{Kind: Write, Host: 0, Proc: "w", Seq: 2, Start: 20, End: Pending, Addr: 100, Data: []byte{2}}
	// A write that never completed may take effect at any later instant
	// — long after its writer stopped — or never.
	for _, c := range []struct {
		name  string
		trace []Op
		ok    bool
	}{
		{"never read", []Op{w(0, "w", 1, 0, 10, 100, 1), pending, r(1, "r", 3, 200, 210, 100, 1)}, true},
		{"read late", []Op{w(0, "w", 1, 0, 10, 100, 1), pending, r(1, "r", 3, 50, 60, 100, 1), r(1, "r", 4, 200, 210, 100, 2)}, true},
		{"read before invoked", []Op{w(0, "w", 1, 0, 10, 100, 1), r(1, "r", 2, 12, 15, 100, 2), pending}, false},
		{"then older value", []Op{w(0, "w", 1, 0, 10, 100, 1), pending, r(1, "r", 3, 50, 60, 100, 2), r(1, "r", 4, 70, 80, 100, 1)}, false},
	} {
		if v := Check(c.trace); (len(v) == 0) != c.ok {
			t.Errorf("%s: accepted %v, want %v: %s", c.name, len(v) == 0, c.ok, Report(v, 0))
		}
		if ok, err := Exact(c.trace, 1000); err != nil || ok != c.ok {
			t.Errorf("%s: Exact says %v (%v), want %v", c.name, ok, err, c.ok)
		}
	}
}

func TestRecorderInvokeComplete(t *testing.T) {
	rec := NewRecorder()
	rec.Record(Write, 0, "a", 0, 1, 0, []byte{1})
	h := rec.Invoke(Write, 1, "b", 2, 0, []byte{2})
	rec.Record(Read, 0, "a", 3, 4, 0, []byte{2})
	if got := rec.Ops()[1].End; got != Pending {
		t.Fatalf("invoked write ends at %d, want Pending", got)
	}
	rec.Complete(h, 6)
	if got := rec.Ops()[1]; got.End != 6 || got.Seq != 2 {
		t.Fatalf("completed write: End %d Seq %d, want 6 and 2", got.End, got.Seq)
	}
	// A write invoked before a Reset and completed after it is gone;
	// its handle must not land on the new trace.
	stale := rec.Invoke(Write, 1, "b", 7, 0, []byte{3})
	rec.Reset()
	h = rec.Invoke(Write, 1, "b", 8, 0, []byte{4})
	rec.Complete(stale, 9)
	if got := rec.Ops()[0].End; got != Pending {
		t.Fatalf("stale handle completed the write invoked after Reset (End %d)", got)
	}
	rec.Complete(h, 10)
	if got := rec.Ops()[0]; got.End != 10 || got.Seq != 5 {
		t.Fatalf("write invoked after Reset: End %d Seq %d, want 10 and 5", got.End, got.Seq)
	}
}

// TestCheckKnownDisagreements lists the shapes on which Check rejects a
// history Exact accepts, each with its reason. Check never errs the
// other way (TestCheckSoundAgainstExact).
func TestCheckKnownDisagreements(t *testing.T) {
	for _, c := range []struct {
		name, reason string
		trace        []Op
	}{
		{
			name: "reverse-completion writes",
			reason: "when no read can go next, the greedy witness places the operation that ends first; " +
				"here the write of 1 ends first but must follow the write of 2, which the first read saw and the second did not",
			trace: []Op{
				w(0, "x", 1, 0, 10, 100, 1),
				r(1, "r", 2, 5, 50, 100, 2),
				r(1, "r", 3, 60, 70, 100, 1),
				w(2, "o", 4, 0, 100, 100, 2),
			},
		},
	} {
		if ok, err := Exact(c.trace, 1000); !ok || err != nil {
			t.Errorf("%s: Exact rejects it (%v): not a disagreement", c.name, err)
		}
		if v := Check(c.trace); len(v) == 0 {
			t.Errorf("%s: Check now accepts it: delete the row", c.name)
		}
	}
}

func TestExactBudget(t *testing.T) {
	var trace []Op
	for i := 0; i < 12; i++ {
		trace = append(trace, w(i, "w", uint64(i+1), 0, 100, 100, byte(i)))
	}
	trace = append(trace, r(12, "r", 13, 200, 210, 100, 99))
	if _, err := Exact(trace, 100); err != ErrBudget {
		t.Fatalf("Exact over budget: %v, want ErrBudget", err)
	}
}
