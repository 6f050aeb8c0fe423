package dsm

// Tests for the dynamic distributed manager (dynamic.go): basic
// coherence through forwarded requests, hint compression, and the
// probable-owner chain-length bound — Li & Hudak prove a request
// reaches the owner within N-1 forwards, and the worst-case walk here
// pins the reachable maximum at N-2 for our read-then-upgrade pattern.

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/model"
	"repro/internal/sim"
)

func withDirectory(d Directory) rigOpt {
	return func(c *Config) { c.Directory = d }
}

func TestDynamicDirectoryValidate(t *testing.T) {
	params := model.Default()
	base := Config{
		PageSize:  8192,
		SpaceSize: 1 << 20,
		Registry:  conv.NewRegistry(),
		Params:    &params,
	}
	bad := base
	bad.Directory = DirDynamic
	bad.Policy = PolicyCentral
	if err := bad.Validate(); err == nil {
		t.Error("dynamic directory accepted under the central-server policy")
	}
	good := base
	good.Directory = DirDynamic
	if err := good.Validate(); err != nil {
		t.Errorf("dynamic MRSW config rejected: %v", err)
	}
}

// TestDynamicBasicCoherence moves one page's ownership through three
// hosts of two architectures: forwarded reads, an in-place replica
// upgrade, and hint compression, with the invariant checker auditing
// the hint graph at every transition.
func TestDynamicBasicCoherence(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun}, withDirectory(DirDynamic))
	r.run("main", func(p *sim.Proc) {
		x, err := r.mods[0].Alloc(p, conv.Int32, 8)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[1].WriteInt32(p, x, 11) // ownership 0→1
		if got := r.mods[2].ReadInt32(p, x); got != 11 {
			t.Errorf("forwarded read = %d, want 11", got)
		}
		r.mods[2].WriteInt32(p, x, 22) // replica upgrade at owner 1, handoff 1→2
		if got := r.mods[1].ReadInt32(p, x); got != 22 {
			t.Errorf("read after upgrade = %d, want 22", got)
		}
		if got := r.mods[0].ReadInt32(p, x); got != 22 {
			t.Errorf("chased read = %d, want 22", got)
		}
		if hint, owned := r.mods[2].ProbableOwner(r.mods[2].PageOf(x)); !owned || hint != 2 {
			t.Errorf("host 2 after its write: hint=%d owned=%v, want self-owned", hint, owned)
		}
		if hint, owned := r.mods[1].ProbableOwner(r.mods[1].PageOf(x)); owned || hint != 2 {
			t.Errorf("host 1 after handoff: hint=%d owned=%v, want hint 2, not owned", hint, owned)
		}
	})
}

// TestDynamicChainWorstCase drives the longest probable-owner chain the
// protocol can build without crashes and asserts Li & Hudak's bound.
// Ownership walks 0→1→…→N-1 by read-then-upgrade: each fresh host k
// first reads — its request enters at host 0 (the initial hint) and is
// forwarded down the never-compressed read chain 0→1→…→(k-1), k-1 hops
// — then upgrades its replica in place, taking ownership directly from
// the host that just served it. The longest chase is therefore N-2
// forwards, strictly under the N-1 bound, and the total forward count
// is the triangular number (N-2)(N-1)/2.
func TestDynamicChainWorstCase(t *testing.T) {
	const n = 6
	kinds := make([]arch.Kind, n)
	for i := range kinds {
		kinds[i] = arch.Sun
	}
	r := newRig(t, kinds, withDirectory(DirDynamic))
	r.run("main", func(p *sim.Proc) {
		x, err := r.mods[0].Alloc(p, conv.Int32, 8)
		if err != nil {
			t.Error(err)
			return
		}
		r.mods[1].WriteInt32(p, x, 1) // ownership 0→1, host 0's hint compressed to 1
		for k := 2; k < n; k++ {
			if got := r.mods[k].ReadInt32(p, x); got != int32(k-1) {
				t.Errorf("host %d read = %d, want %d", k, got, k-1)
			}
			r.mods[k].WriteInt32(p, x, int32(k)) // in-place upgrade: ownership (k-1)→k
		}
		if got := r.mods[n-1].ReadInt32(p, x); got != n-1 {
			t.Errorf("final value = %d, want %d", got, n-1)
		}
	})

	maxChain, forwards, serves, hops := 0, 0, 0, 0
	for i, m := range r.mods {
		s := m.Stats()
		if s.ChainMax > maxChain {
			maxChain = s.ChainMax
		}
		forwards += s.Forwards
		serves += s.ChainServes
		hops += s.ChainHops
		t.Logf("host %d: forwards=%d chainServes=%d chainHops=%d chainMax=%d", i, s.Forwards, s.ChainServes, s.ChainHops, s.ChainMax)
	}
	if want := n - 2; maxChain != want {
		t.Errorf("longest chain = %d forwards, want %d (N-2 for the read-then-upgrade walk)", maxChain, want)
	}
	if maxChain > n-1 {
		t.Errorf("chain of %d forwards exceeds Li & Hudak's N-1 bound (N=%d)", maxChain, n)
	}
	if want := (n - 2) * (n - 1) / 2; forwards != want {
		t.Errorf("total forwards = %d, want triangular %d", forwards, want)
	}
	if forwards != hops {
		t.Errorf("forwards issued (%d) disagree with hops observed at owners (%d)", forwards, hops)
	}
	if serves == 0 {
		t.Error("no owner-side chain serves recorded")
	}
}

// TestDynamicManyPagesManyHosts stress-mixes forwarded reads and
// upgrade writes over several pages so hint graphs of different shapes
// coexist, and cross-checks final contents.
func TestDynamicManyPagesManyHosts(t *testing.T) {
	const n, pages = 4, 3
	kinds := []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly}
	r := newRig(t, kinds, withDirectory(DirDynamic))
	r.run("main", func(p *sim.Proc) {
		addrs := make([]Addr, pages)
		for i := range addrs {
			a, err := r.mods[0].Alloc(p, conv.Int32, 2048)
			if err != nil {
				t.Error(err)
				return
			}
			addrs[i] = a
		}
		for round := 0; round < 3; round++ {
			for pg, a := range addrs {
				w := (round + pg) % n
				r.mods[w].WriteInt32(p, a+Addr(4*round), int32(100*round+pg))
				rd := (round + pg + 1) % n
				if got := r.mods[rd].ReadInt32(p, a+Addr(4*round)); got != int32(100*round+pg) {
					t.Errorf("round %d page %d: read = %d, want %d", round, pg, got, 100*round+pg)
				}
			}
		}
		for pg, a := range addrs {
			for round := 0; round < 3; round++ {
				if got := r.mods[0].ReadInt32(p, a+Addr(4*round)); got != int32(100*round+pg) {
					t.Errorf("final page %d round %d = %d, want %d", pg, round, got, 100*round+pg)
				}
			}
		}
	})
}

// TestDynamicManagerPanics pins the contract that the dynamic directory
// has no fixed manager mapping.
func TestDynamicManagerPanics(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Sun}, withDirectory(DirDynamic))
	defer func() {
		if recover() == nil {
			t.Error("Manager() under the dynamic directory did not panic")
		}
	}()
	_ = r.mods[0].Manager(0)
}

// TestDynamicStateHashCoversHints pins that probable-owner state is part
// of the model checker's fingerprint: two rigs differing only in hint
// graphs must hash differently.
func TestDynamicStateHashCoversHints(t *testing.T) {
	build := func(extraRead bool) string {
		r := newRig(t, []arch.Kind{arch.Sun, arch.Sun, arch.Sun}, withDirectory(DirDynamic))
		r.run("main", func(p *sim.Proc) {
			x, err := r.mods[0].Alloc(p, conv.Int32, 8)
			if err != nil {
				t.Error(err)
				return
			}
			r.mods[1].WriteInt32(p, x, 1)
			if extraRead {
				_ = r.mods[2].ReadInt32(p, x) // adds host 2 to the copyset, moves its hint
			}
		})
		h := fnv.New64a()
		for _, m := range r.mods {
			m.WriteStateHash(h)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	if a, b := build(false), build(true); a == b {
		t.Error("state hash ignores dynamic hint/copyset differences")
	}
}

// TestDynamicFaultCoordinatesItsOwnRecovery: host 0's read fault finds
// its probable owner, host 1, crashed, and host 0 — the smallest live
// host — is the recovery coordinator, so dynCoordinate runs inside
// host 0's own fault, under the page-transaction lock that fault holds
// (the recovery lock ranks above it). It rebuilds ownership at host 0
// from host 2's surviving read copy.
func TestDynamicFaultCoordinatesItsOwnRecovery(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun}, withDirectory(DirDynamic))
	for _, m := range r.mods {
		d := NewDetector(r.k, m.ep, r.cfg.Params, len(r.mods))
		m.AttachLiveness(d)
		d.Start()
	}
	done := false
	r.k.Spawn("main", func(p *sim.Proc) {
		defer func() { done = true }()
		x, err := r.mods[0].Alloc(p, conv.Int32, 8)
		if err != nil {
			t.Error(err)
			return
		}
		page := r.mods[0].PageOf(x)
		r.mods[1].WriteInt32(p, x, 11) // ownership 0→1: host 0's hint names host 1
		if got := r.mods[2].ReadInt32(p, x); got != 11 {
			t.Errorf("host 2 read %d, want 11", got)
		}
		p.Sleep(time.Second)
		r.net.SetHostDown(1, true)
		r.mods[1].ep.Crash()
		p.Sleep(4 * time.Second) // the detectors declare host 1 dead
		if got, err := r.mods[0].ReadInt32E(p, x); err != nil || got != 11 {
			t.Errorf("host 0 read %d, %v after the owner's crash, want 11, nil", got, err)
		}
		if hint, owned := r.mods[0].ProbableOwner(page); !owned || hint != 0 {
			t.Errorf("host 0 after coordinating: hint=%d owned=%v, want self-owned", hint, owned)
		}
		if n := r.mods[0].Stats().PagesRecovered; n != 1 {
			t.Errorf("host 0 recovered %d pages, want 1", n)
		}
	})
	r.k.RunUntil(func() bool { return done })
	r.k.Shutdown()
	if !done {
		t.Fatal("main never finished")
	}
}

// TestDynamicCoordinatorWaitsForAVerdict cuts the owner off on a
// cluster with no failure detector: the coordinator's probe of it times
// out, which proves nothing, so coordination neither declares the page
// lost nor rebuilds ownership from a surviving read copy while the
// owner may still write it.
func TestDynamicCoordinatorWaitsForAVerdict(t *testing.T) {
	for _, reader := range []bool{false, true} {
		t.Run(fmt.Sprintf("reader=%v", reader), func(t *testing.T) {
			r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun}, withDirectory(DirDynamic))
			done := false
			r.k.Spawn("main", func(p *sim.Proc) {
				defer func() { done = true }()
				x, err := r.mods[0].Alloc(p, conv.Int32, 8)
				if err != nil {
					t.Error(err)
					return
				}
				page := r.mods[0].PageOf(x)
				r.mods[1].WriteInt32(p, x, 11) // host 1 owns the page
				if reader {
					r.mods[2].ReadInt32(p, x)
				}
				r.net.SetHostDown(1, true) // cut off, not crashed
				if owner, st := r.mods[0].dynCoordinate(p, page); st != dynRecRetry {
					t.Errorf("coordination with the owner cut off = (%d, %d), want a retry", owner, st)
				}
				if s := r.mods[0].Stats(); s.PagesLost != 0 || s.PagesRecovered != 0 {
					t.Errorf("coordinator lost %d and recovered %d pages, want none", s.PagesLost, s.PagesRecovered)
				}
			})
			r.k.RunUntil(func() bool { return done })
			r.k.Shutdown()
			if !done {
				t.Fatal("main never finished")
			}
		})
	}
}
