package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func lockFinding(fs []Finding, rule, substr string) bool {
	for _, f := range fs {
		if f.Rule == rule && strings.Contains(f.Msg, substr) {
			return true
		}
	}
	return false
}

// TestLockOrderCycleFromSyntheticFacts feeds the global phase two
// functions taking classes A and B in opposite orders.
func TestLockOrderCycleFromSyntheticFacts(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 1}
	facts := &LockFacts{Pkg: "p", Funcs: []*FuncLockFacts{
		{Key: "p.ab", Acquires: []LockAcquire{
			{Class: "A", Pos: pos},
			{Class: "B", Held: []string{"A"}, Pos: pos},
		}},
		{Key: "p.ba", Acquires: []LockAcquire{
			{Class: "B", Pos: pos},
			{Class: "A", Held: []string{"B"}, Pos: pos},
		}},
	}}
	fs, g := CheckLockOrder([]*LockFacts{facts})
	if !lockFinding(fs, "lock-order", "acquiring B while holding A") ||
		!lockFinding(fs, "lock-order", "acquiring A while holding B") {
		t.Fatalf("both cycle edges must be reported, got %v", fs)
	}
	if g.Classes != 2 || g.Edges != 2 {
		t.Errorf("graph = %+v, want 2 classes / 2 edges", g)
	}
}

// TestLockOrderEdgeThroughCall: holding A while calling a function
// whose transitive acquires include B contributes the A→B edge.
func TestLockOrderEdgeThroughCall(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 2}
	facts := &LockFacts{Pkg: "p", Funcs: []*FuncLockFacts{
		{Key: "p.caller",
			Acquires: []LockAcquire{{Class: "A", Pos: pos}},
			Calls:    []LockCallEdge{{Callee: "p.helper", Held: []string{"A"}, Pos: pos}}},
		{Key: "p.helper",
			Calls: []LockCallEdge{{Callee: "p.inner", Pos: pos}}},
		{Key: "p.inner",
			Acquires: []LockAcquire{{Class: "B", Pos: pos}}},
		{Key: "p.inverse", Acquires: []LockAcquire{
			{Class: "B", Pos: pos},
			{Class: "A", Held: []string{"B"}, Pos: pos},
		}},
	}}
	fs, _ := CheckLockOrder([]*LockFacts{facts})
	if !lockFinding(fs, "lock-order", "acquiring B while holding A") {
		t.Fatalf("edge through two call levels not found: %v", fs)
	}
}

// TestLockRemoteHandlerExpansion: a class held across a remote call
// whose registered handler reacquires it is reported, and the
// same-class edge never becomes a length-1 cycle.
func TestLockRemoteHandlerExpansion(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 3}
	facts := &LockFacts{Pkg: "p",
		Funcs: []*FuncLockFacts{
			{Key: "p.request",
				Acquires: []LockAcquire{{Class: "M", Pos: pos}},
				Remotes:  []LockRemote{{Kinds: []string{"KindX"}, Held: []string{"M"}, Pos: pos}}},
			{Key: "p.handle",
				Acquires: []LockAcquire{{Class: "M", Pos: pos}}},
		},
		Regs: []LockHandlerReg{{Kind: "KindX", Handler: "p.handle"}},
	}
	fs, _ := CheckLockOrder([]*LockFacts{facts})
	if !lockFinding(fs, "lock-remote", "M is held across a blocking remote call") {
		t.Fatalf("lock-remote not reported: %v", fs)
	}
	if lockFinding(fs, "lock-order", "") {
		t.Fatalf("same-class reacquisition must not surface as a cycle: %v", fs)
	}
}

// TestLockRemoteIgnoredSiteSilent: a vet:ignore lock-remote site
// contributes no finding and no edge.
func TestLockRemoteIgnoredSiteSilent(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 4}
	facts := &LockFacts{Pkg: "p",
		Funcs: []*FuncLockFacts{
			{Key: "p.request",
				Acquires: []LockAcquire{{Class: "M", Pos: pos}},
				Remotes:  []LockRemote{{Kinds: []string{"KindX"}, Held: []string{"M"}, Pos: pos, Ignored: true}}},
			{Key: "p.handle",
				Acquires: []LockAcquire{{Class: "M", Pos: pos}}},
		},
		Regs: []LockHandlerReg{{Kind: "KindX", Handler: "p.handle"}},
	}
	fs, _ := CheckLockOrder([]*LockFacts{facts})
	if len(fs) != 0 {
		t.Fatalf("ignored remote site must be silent, got %v", fs)
	}
}

// TestLockOrderIfaceFallbackResolution: an iface:Name callee resolves
// to every collected function with that bare name.
func TestLockOrderIfaceFallbackResolution(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 5}
	facts := &LockFacts{Pkg: "p", Funcs: []*FuncLockFacts{
		{Key: "p.caller",
			Acquires: []LockAcquire{{Class: "A", Pos: pos}},
			Calls:    []LockCallEdge{{Callee: "iface:Serve", Held: []string{"A"}, Pos: pos}}},
		{Key: "p.(impl).Serve", Acquires: []LockAcquire{
			{Class: "B", Pos: pos},
		}},
		{Key: "p.inverse", Acquires: []LockAcquire{
			{Class: "B", Pos: pos},
			{Class: "A", Held: []string{"B"}, Pos: pos},
		}},
	}}
	fs, _ := CheckLockOrder([]*LockFacts{facts})
	if !lockFinding(fs, "lock-order", "acquiring B while holding A") {
		t.Fatalf("interface-dispatch edge not found: %v", fs)
	}
}

// TestLockOrderSubsetSilence: handler registrations without any
// analyzed function bodies must produce nothing — a package-subset run
// cannot prove absence of deadlock.
func TestLockOrderSubsetSilence(t *testing.T) {
	facts := &LockFacts{Pkg: "p", Regs: []LockHandlerReg{{Kind: "KindX", Handler: "p.handle"}}}
	fs, g := CheckLockOrder([]*LockFacts{facts, nil})
	if len(fs) != 0 || g.Classes != 0 || g.Edges != 0 {
		t.Fatalf("subset run must be silent and empty, got %v %+v", fs, g)
	}
}

// TestLockOrderHeldSetsInHoldShape collects facts from a fixture whose
// holds are written P then defer V: each hold lasts from its P to the
// end of the body, so the second acquire, the module call and the
// Endpoint.Call after both P's all see both classes held. Deferred
// calls and function literals contribute nothing.
func TestLockOrderHeldSetsInHoldShape(t *testing.T) {
	const src = `package dsm

type sema struct{}

func (s *sema) P(x int) {}
func (s *sema) V()      {}

type Message struct{ Kind int }

const KindGetPage = 1

type Endpoint struct{}

func (e *Endpoint) Call(dst int, m *Message) (*Message, error) { return nil, nil }

type entry struct{ lock sema }

type Module struct {
	ep      *Endpoint
	fault   sema
	entries map[int]*entry
}

func (m *Module) serve(page int) error {
	ent := m.entries[page]
	m.fault.P(1)
	defer m.fault.V()
	ent.lock.P(1)
	defer m.audit(page)
	defer ent.lock.V()
	m.settle(page)
	go func() { m.settle(page + 1) }()
	_, err := m.ep.Call(0, &Message{Kind: KindGetPage})
	return err
}

func (m *Module) settle(page int) {}
func (m *Module) audit(page int)  {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := NewPackage(fset, "fixture/dsm", []*ast.File{f}, nil)
	facts := CollectLockFacts(pkg, &Config{LockOrderPackages: []string{"fixture/dsm"}})
	var serve *FuncLockFacts
	for _, ff := range facts.Funcs {
		if bareName(ff.Key) == "serve" {
			serve = ff
		}
	}
	if serve == nil {
		t.Fatalf("no facts for serve in %+v", facts.Funcs)
	}
	both := []string{"dsm.Module.fault", "dsm.entry.lock"}
	type acq struct {
		class string
		held  []string
	}
	var acqs []acq
	for _, a := range serve.Acquires {
		acqs = append(acqs, acq{a.Class, a.Held})
	}
	if want := []acq{{"dsm.Module.fault", nil}, {"dsm.entry.lock", both[:1]}}; !reflect.DeepEqual(acqs, want) {
		t.Errorf("acquires = %v, want %v", acqs, want)
	}
	if len(serve.Calls) != 1 || bareName(serve.Calls[0].Callee) != "settle" || !reflect.DeepEqual(serve.Calls[0].Held, both) {
		t.Errorf("calls = %+v, want settle alone under %v", serve.Calls, both)
	}
	if len(serve.Remotes) != 1 || !reflect.DeepEqual(serve.Remotes[0].Kinds, []string{"KindGetPage"}) ||
		!reflect.DeepEqual(serve.Remotes[0].Held, both) {
		t.Errorf("remotes = %+v, want one KindGetPage call under %v", serve.Remotes, both)
	}
}
