package sctrace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randomHistory draws a small history from seed: up to three streams of
// up to four operations on bytes 0–3, each write possibly left pending,
// with the reads' values taken from a random interleaving and, in a
// third of the histories, one read byte overwritten at random. Equal
// instants are common, so the tie rules are exercised too.
func randomHistory(seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	type gen struct {
		op     Op
		stream int
		at     int64 // where the drawing interleaving places it; -1: left out
	}
	var gens []gen
	for s := 0; s < 1+rng.Intn(3); s++ {
		var t int64
		for i := 0; i < 1+rng.Intn(4); i++ {
			start := t + int64(rng.Intn(3))
			end := start + int64(rng.Intn(6))
			t = end + int64(rng.Intn(2))
			n := 1 + rng.Intn(2)
			op := Op{Kind: Read, Host: s, Proc: "p", Start: start, End: end, Addr: uint32(rng.Intn(4 - n + 1)), Data: make([]byte, n)}
			g := gen{stream: s, at: start + rng.Int63n(end-start+1)}
			if rng.Intn(2) == 0 {
				op.Kind = Write
				for k := range op.Data {
					op.Data[k] = byte(rng.Intn(3))
				}
				if rng.Intn(6) == 0 {
					op.End = Pending
					if rng.Intn(2) == 0 {
						g.at = -1
					} else {
						g.at = start + int64(rng.Intn(12))
					}
				}
			}
			g.op = op
			gens = append(gens, g)
		}
	}
	// Read values: replay the drawn interleaving.
	idx := make([]int, len(gens))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return gens[idx[a]].at < gens[idx[b]].at })
	state := map[uint32]byte{}
	for _, i := range idx {
		g := &gens[i]
		switch {
		case g.at < 0:
		case g.op.Kind == Write:
			apply(state, g.op)
		default:
			for k := range g.op.Data {
				g.op.Data[k] = state[g.op.Addr+uint32(k)]
			}
		}
	}
	if rng.Intn(3) == 0 {
		for _, i := range rng.Perm(len(gens)) {
			if op := gens[i].op; op.Kind == Read {
				op.Data[rng.Intn(len(op.Data))] = byte(rng.Intn(3))
				break
			}
		}
	}
	// Record order: by completion (a pending write by its start), each
	// stream in program order.
	recAt := func(g gen) int64 {
		if g.op.End == Pending {
			return g.op.Start
		}
		return g.op.End
	}
	sort.SliceStable(gens, func(a, b int) bool {
		if gens[a].stream == gens[b].stream {
			return false
		}
		return recAt(gens[a]) < recAt(gens[b])
	})
	ops := make([]Op, len(gens))
	for i, g := range gens {
		ops[i] = g.op
		ops[i].Seq = uint64(i + 1)
	}
	return ops
}

// checkAgainstExact fails t when Check accepts the history from seed
// and Exact rejects it, and reports whether the two disagree the other
// way.
func checkAgainstExact(t *testing.T, seed int64) (falsePositive bool) {
	ops := randomHistory(seed)
	exact, err := Exact(ops, 1<<20)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	v := Check(ops)
	if len(v) == 0 && !exact {
		t.Fatalf("seed %d: Check accepts a history Exact rejects:\n%s", seed, dump(ops))
	}
	return len(v) > 0 && exact
}

func dump(ops []Op) string {
	out := ""
	for _, op := range ops {
		out += fmt.Sprintf("%s data=%v\n", op, op.Data)
	}
	return out
}

// TestCheckSoundAgainstExact runs checkAgainstExact over a fixed sweep
// of seeds and logs how often Check rejects a linearizable history.
func TestCheckSoundAgainstExact(t *testing.T) {
	const n = 20000
	fp := 0
	for seed := int64(1); seed <= n; seed++ {
		if checkAgainstExact(t, seed) {
			fp++
		}
	}
	t.Logf("Check rejected %d of %d histories Exact accepts", fp, n)
}

// FuzzCheckSoundAgainstExact is the same property under the fuzzer:
// go test -fuzz FuzzCheckSoundAgainstExact ./internal/sctrace.
func FuzzCheckSoundAgainstExact(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAgainstExact(t, seed) })
}
