package dsm

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/sim"
)

// TestCheckerCoversHealthyRun asserts the checker actually observes a
// correct execution (many audits, zero violations) — guarding
// against the checker silently never firing.
func TestCheckerCoversHealthyRun(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun})
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 64)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]int32, 64)
		r.mods[1].ReadInt32s(p, addr, buf)
		r.mods[2].WriteInt32s(p, addr, buf)
		r.mods[0].ReadInt32s(p, addr, buf)
	})
	if r.check.Checks() == 0 {
		t.Fatal("invariant checker executed no audits")
	}
	if r.check.Violations() != 0 {
		t.Fatalf("healthy run produced %d violations", r.check.Violations())
	}
}

// TestCheckerTripsOnSkippedInvalidation mutates the protocol — write
// transactions stop invalidating readers — and demonstrates that the
// checker catches the resulting stale copy. This is the classic silent
// DSM coherence bug: the cluster keeps running, readers just see old
// data.
func TestCheckerTripsOnSkippedInvalidation(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun})
	var got []Violation
	r.check.SetFailHandler(func(v Violation) { got = append(got, v) })
	r.mods[0].cfg.Mutation = MutSkipInvalidation // shared Config: cluster-wide
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		// Host 1 acquires a read replica; host 2 then writes. With
		// invalidations suppressed host 1's replica survives the write
		// while the manager's copyset says it must not exist.
		r.mods[1].ReadInt32s(p, addr, make([]int32, 4))
		r.mods[2].WriteInt32s(p, addr, []int32{1, 2, 3, 4})
	})
	if len(got) == 0 {
		t.Fatal("skipped invalidation went undetected")
	}
	found := false
	for _, v := range got {
		if strings.Contains(v.Msg, "stale copy") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stale-copy violation among: %v", got)
	}
}

// TestCheckerDetectsDoubleWriter corrupts the single-writer invariant
// directly and verifies both the unique-writer and the owner-agreement
// checks fire.
func TestCheckerDetectsDoubleWriter(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun})
	var got []Violation
	r.check.SetFailHandler(func(v Violation) { got = append(got, v) })
	var page PageNo
	r.run("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 4)
		if err != nil {
			t.Error(err)
			return
		}
		page = r.mods[0].PageOf(addr)
		// A read fault routes through the manager, creating the entry
		// whose bookkeeping the forged state below contradicts.
		r.mods[1].ReadInt32s(p, addr, make([]int32, 4))
	})
	got = got[:0]
	// Forge two writable copies behind the protocol's back.
	r.mods[0].localPageFor(page).access = WriteAccess
	r.mods[1].localPageFor(page).access = WriteAccess
	r.check.CheckAll("tamper")
	var multi, owner bool
	for _, v := range got {
		if strings.Contains(v.Msg, "multiple writable copies") {
			multi = true
		}
		if strings.Contains(v.Msg, "records owner") {
			owner = true
		}
	}
	if !multi || !owner {
		t.Fatalf("double writer not fully diagnosed (multi=%v owner=%v): %v", multi, owner, got)
	}
}

// TestCheckerViolationString pins the rendered message format tests and
// humans grep for.
func TestCheckerViolationString(t *testing.T) {
	v := Violation{Point: "transfer-complete", Page: 7, Msg: "boom"}
	want := "dsm: invariant violated at transfer-complete, page 7: boom"
	if v.String() != want {
		t.Fatalf("got %q, want %q", v.String(), want)
	}
}
