package dsm

// Regression tests for span validation in requiredPages/EnsureAccess:
// zero-length spans, spans straddling page boundaries, spans ending
// exactly at the end of the shared space, and — the original bug —
// spans whose addr+n wraps the 32-bit address and used to alias low
// pages instead of being rejected.

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/sim"
)

func TestRequiredPagesSpanValidation(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun})
	m := r.mods[0]
	space := Addr(m.cfg.SpaceSize)

	cases := []struct {
		name    string
		addr    Addr
		n       int
		wantErr string // substring; "" means the span must be accepted
	}{
		{"zero-length at origin", 0, 0, ""},
		{"zero-length mid-space", space / 2, 0, ""},
		{"zero-length at end of space", space, 0, ""},
		{"single byte at origin", 0, 1, ""},
		{"last byte of space", space - 1, 1, ""},
		{"final page exactly", space - Addr(m.cfg.PageSize), m.cfg.PageSize, ""},
		{"whole space", 0, int(space), ""},
		{"negative length", 0, -1, "negative length"},
		{"one byte past end", space - 3, 4, "beyond"},
		{"starts at end", space, 1, "beyond"},
		{"starts past end", space + 100, 1, "beyond"},
		{"addr+n wraps uint32", 0xFFFFFFF0, 0x20, "beyond"},
		{"max addr, huge n", 0xFFFFFFFF, 1<<31 - 1, "beyond"},
	}
	for _, tc := range cases {
		first, last, err := m.requiredPages(tc.addr, tc.n)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("%s: requiredPages(%d, %d) accepted, want error containing %q (pages [%d,%d])",
					tc.name, tc.addr, tc.n, tc.wantErr, first, last)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: requiredPages(%d, %d) rejected: %v", tc.name, tc.addr, tc.n, err)
			continue
		}
		if tc.n == 0 {
			if first <= last {
				t.Errorf("%s: zero-length span wants the empty range, got [%d,%d]", tc.name, first, last)
			}
			continue
		}
		// The (group-expanded) page range must cover the span and stay
		// inside the space.
		if first > m.PageOf(tc.addr) || last < m.PageOf(tc.addr+Addr(tc.n)-1) {
			t.Errorf("%s: pages [%d,%d] do not cover span [%d,%d)", tc.name, first, last, tc.addr, int(tc.addr)+tc.n)
		}
		if max := PageNo(m.NumPages() - 1); last > max {
			t.Errorf("%s: page %d past end of space (max %d)", tc.name, last, max)
		}
	}
}

func TestRequiredPagesStraddlesPageBoundary(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun}) // Sun: VM page == DSM page, group size 1
	m := r.mods[0]
	ps := Addr(m.cfg.PageSize)
	first, last, err := m.requiredPages(ps-2, 4) // 2 bytes on page 0, 2 on page 1
	if err != nil {
		t.Fatalf("boundary-straddling span rejected: %v", err)
	}
	if first != 0 || last != 1 {
		t.Fatalf("requiredPages(%d, 4) = [%d,%d], want [0,1]", ps-2, first, last)
	}
}

func TestEnsureAccessZeroLengthIsFree(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		m := r.mods[1]
		for _, addr := range []Addr{0, Addr(m.cfg.SpaceSize) / 2, Addr(m.cfg.SpaceSize)} {
			if err := m.EnsureAccess(p, addr, 0, true); err != nil {
				t.Errorf("zero-length access at %d: %v", addr, err)
			}
		}
		st := m.Stats()
		if st.ReadFaults != 0 || st.WriteFaults != 0 {
			t.Errorf("zero-length accesses faulted: %d read, %d write", st.ReadFaults, st.WriteFaults)
		}
	})
}

func TestEnsureAccessRejectsOutOfRangeSpans(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.run("main", func(p *sim.Proc) {
		m := r.mods[0]
		space := Addr(m.cfg.SpaceSize)
		for _, tc := range []struct {
			addr Addr
			n    int
		}{
			{space - 3, 4},     // end-of-space overrun
			{0, -8},            // negative length
			{0xFFFFFFF0, 0x20}, // addr+n wraps the 32-bit address
		} {
			if err := m.EnsureAccess(p, tc.addr, tc.n, false); err == nil {
				t.Errorf("EnsureAccess(%d, %d) accepted an invalid span", tc.addr, tc.n)
			}
		}
		st := m.Stats()
		if st.ReadFaults != 0 || st.WriteFaults != 0 {
			t.Errorf("rejected spans still faulted: %d read, %d write", st.ReadFaults, st.WriteFaults)
		}
	})
}

func TestEnsureAccessAcrossPageBoundary(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun})
	r.run("main", func(p *sim.Proc) {
		m0, m1 := r.mods[0], r.mods[1]
		perPage := m0.cfg.PageSize / 4
		addr, err := m0.Alloc(p, conv.Int32, 2*perPage) // exactly two pages
		if err != nil {
			t.Error(err)
			return
		}
		vals := make([]int32, 2*perPage)
		for i := range vals {
			vals[i] = int32(i + 1)
		}
		m0.WriteInt32s(p, addr, vals)

		// A read span covering the last element of the first page and
		// the first of the second must make both pages resident.
		straddle := addr + Addr(m0.cfg.PageSize) - 4
		if err := m1.EnsureAccess(p, straddle, 8, false); err != nil {
			t.Errorf("boundary-straddling access: %v", err)
			return
		}
		p0, p1 := m1.PageOf(straddle), m1.PageOf(straddle+7)
		if p0 == p1 {
			t.Fatalf("span does not straddle: both bytes on page %d", p0)
		}
		for _, pg := range []PageNo{p0, p1} {
			if !m1.hasAccess(pg, false) {
				t.Errorf("page %d not readable after straddling EnsureAccess", pg)
			}
		}
		got := make([]int32, 2)
		m1.ReadInt32s(p, straddle, got)
		if got[0] != vals[perPage-1] || got[1] != vals[perPage] {
			t.Errorf("straddling read = %v, want [%d %d]", got, vals[perPage-1], vals[perPage])
		}
	})
}

// TestLockRankRefusesFaultUnderPageTransaction: a process that holds a
// page's transaction lock and then faults takes the fault lock (rank
// 1) under the transaction lock (rank 2) — the inversion that, with a
// fault on the other page in the opposite order, is a deadlock. sim
// panics at the fault lock's P, naming the process and both locks.
func TestLockRankRefusesFaultUnderPageTransaction(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	r.k.Spawn("main", func(p *sim.Proc) {
		addr, err := r.mods[0].Alloc(p, conv.Int32, 2*2048)
		if err != nil {
			t.Error(err)
			return
		}
		m := r.mods[1]
		for a := addr; a < addr+Addr(2*r.cfg.PageSize); a += Addr(r.cfg.PageSize) {
			if pg := m.PageOf(a); m.manager(pg) == m.id {
				ent := m.mgrEntryFor(pg)
				ent.lock.P(p)
				defer ent.lock.V()
				m.ReadInt32s(p, a, make([]int32, 1)) // host 0 owns it: a fault
				return
			}
		}
		t.Error("host 1 manages neither page")
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		r.k.Run()
		return nil
	}()
	want := `sim: process "main" panicked: sim: process "main" takes fault lock (rank 1) while holding page-transaction lock (rank 2)`
	if got != want {
		t.Fatalf("panic %v, want %q", got, want)
	}
	r.k.Shutdown()
}

// TestFixedManagerWriteFaultFetchesFromOwner: a fixed manager that
// write-faults on a page it manages while another host owns it, and
// holds no copy itself, fetches the page with write access from the
// owner, keeping its entry lock across the call (localManagerFault's
// KindGetPageWrite branch) — across a Sun/Firefly conversion. The fault
// takes one round trip and no retransmission: a call sent to the
// manager itself waits on the entry lock its caller holds until it
// times out, and faultPage's retry can hide that from a test of final
// values alone.
func TestFixedManagerWriteFaultFetchesFromOwner(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly})
	finished := false
	r.run("main", func(p *sim.Proc) {
		// Two full pages: the second is managed by host 1.
		var addr Addr
		for range 2 {
			var err error
			if addr, err = r.mods[0].Alloc(p, conv.Int32, 2048); err != nil {
				t.Error(err)
				return
			}
		}
		mgr := r.mods[1]
		page := mgr.PageOf(addr)
		if got := mgr.manager(page); got != 1 {
			t.Errorf("second page managed by %d, want 1", got)
			return
		}
		r.mods[0].WriteInt32(p, addr, 5)
		if ent := mgr.mgrEntryFor(page); ent.owner != 0 || mgr.Access(page) != NoAccess {
			t.Errorf("after host 0's write: owner %d, manager access %v; want owner 0, no copy at the manager", ent.owner, mgr.Access(page))
			return
		}
		sent := mgr.ep.Stats().Retransmits
		mgr.WriteInt32(p, addr+4, 6)
		if n := mgr.ep.Stats().Retransmits - sent; n != 0 {
			t.Errorf("the manager's write fault retransmitted %d time(s), want 0", n)
		}
		if mgr.Access(page) != WriteAccess || r.mods[0].Access(page) != NoAccess {
			t.Errorf("after the manager's write: access %v at the manager, %v at host 0", mgr.Access(page), r.mods[0].Access(page))
		}
		got := make([]int32, 2)
		r.mods[0].ReadInt32s(p, addr, got)
		if got[0] != 5 || got[1] != 6 {
			t.Errorf("host 0 reads %v, want [5 6]", got)
		}
		finished = true
	})
	if !finished {
		t.Fatal("the run stopped before host 0 read the page back")
	}
}
