package vet

import (
	"strings"
	"testing"
)

// The map-order rule infers no exception. TestMapOrderNoInferredExceptions
// feeds it the shapes a commutativity prover once discharged — every
// one is order-insensitive, and every one is reported all the same —
// next to the two sanctioned spellings, which stay silent. The tests
// after it keep the order-sensitive shapes flagged.

const mapOrderPreamble = `
package sim

import "sort"

// SortedKeys stands in for sim.SortedKeys: what matters to the rule is
// that the loop ranges over a slice.
func SortedKeys(m map[string]int) []string { return nil }

func even(x int) bool { return x%2 == 0 }
`

func TestMapOrderNoInferredExceptions(t *testing.T) {
	shapes := []struct{ name, fn string }{
		{"commutative fold", `
func f(m map[string]int) int {
	total := 0
	RANGE
		total += m[k]
	}
	return total
}`},
		{"collect then sort", `
func f(m map[string]int) []string {
	var out []string
	RANGE
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}`},
		{"keyed map write", `
func f(m map[string]int) map[string]int {
	out := map[string]int{}
	RANGE
		out[k] = m[k] + 1
	}
	return out
}`},
		{"pure-callee condition", `
func f(m map[string]int) int {
	n := 0
	RANGE
		if even(m[k]) {
			n++
		}
	}
	return n
}`},
	}
	headers := []struct {
		name, header string
		findings     int
	}{
		{"range over the map", "for k := range m {", 1},
		{"range over SortedKeys", "for _, k := range SortedKeys(m) {", 0},
		{"annotated", "for k := range m { // vet:ignore map-order — fixture: a reasoned exception", 0},
	}
	for _, s := range shapes {
		for _, h := range headers {
			src := mapOrderPreamble + strings.Replace(s.fn, "RANGE", h.header, 1)
			fs := analyze(t, "fixture/sim", map[string]string{"a.go": src})
			if len(fs) != h.findings {
				t.Errorf("%s, %s: %d findings, want %d: %v", s.name, h.name, len(fs), h.findings, fs)
				continue
			}
			for _, f := range fs {
				if f.Rule != "map-order" || !strings.Contains(f.Msg, "range over map m") {
					t.Errorf("%s, %s: unexpected finding %v", s.name, h.name, f)
				}
			}
		}
	}
}

func TestMapOrderAccumulatorReadStillFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

// Running min: the result is order-independent, the finding stays —
// the first match of a sorted walk says the same thing.
func minKey(m map[int]bool) int {
	best := 1 << 30
	for k := range m {
		if k < best {
			best = k
		}
	}
	return best
}
`})
	wantRule(t, fs, "map-order", "iteration order is randomized")
}

func TestMapOrderLoggingCalleeStillFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

var trace []int

func record(x int) int {
	trace = append(trace, x)
	return x
}

// The helper logs in call order, so the fold does not commute.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += record(v)
	}
	return total
}
`})
	wantRule(t, fs, "map-order", "iteration order is randomized")
}

func TestMapOrderUnsortedCollectStillFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

// Appending without canonicalizing afterwards leaks iteration order.
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`})
	wantRule(t, fs, "map-order", "iteration order is randomized")
}

func TestMapOrderFieldComparatorNotLaundering(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

import "sort"

type ent struct {
	page  uint32
	count int
}

// Sorting by one field leaves ties in map order: not a canonicalizer.
func tally(m map[uint32]int) []ent {
	var out []ent
	for p, c := range m {
		out = append(out, ent{page: p, count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].count < out[j].count })
	return out
}
`})
	wantRule(t, fs, "map-order", "iteration order is randomized")
}

func TestMapOrderEarlyExitStillFlagged(t *testing.T) {
	fs := analyze(t, "fixture/dsm", map[string]string{"a.go": `
package dsm

// break makes the observed element order-dependent.
func any(m map[int]bool) int {
	found := -1
	for k := range m {
		found = k
		break
	}
	return found
}
`})
	wantRule(t, fs, "map-order", "iteration order is randomized")
}
