package vet

import "testing"

var sumCfg = &Config{
	BufPoolPackage: "repro/internal/bufpool",
	ProtoPackage:   "repro/internal/proto",
}

const sumSrc = `package sum
import "repro/internal/bufpool"

var kept []byte

func release(b []byte)  { bufpool.Put(b) }
func store(b []byte)    { kept = b }
func loan(b []byte) int { return len(b) }
func make1() []byte     { return bufpool.Get(1) }
func make2() []byte     { return make1() }

func relRec(b []byte, depth int) {
	if depth == 0 {
		bufpool.Put(b)
		return
	}
	relRec(b, depth-1)
}

func even(n int) bool { if n == 0 { return true }; return odd(n - 1) }
func odd(n int) bool  { if n == 0 { return false }; return even(n - 1) }
`

func TestSummaryEffectBits(t *testing.T) {
	pkg := loadInline(t, "fixture/sum", sumSrc)
	tbl := NewSummaryTable()
	if n := ComputeSummaries(pkg, sumCfg, tbl); n == 0 {
		t.Fatal("no summaries computed")
	}
	cases := []struct {
		fn                    string
		release, store, owned bool
	}{
		{"release", true, false, false},
		{"store", false, true, false},
		{"loan", false, false, false},
		{"make1", false, false, true},
		{"make2", false, false, true},
		{"relRec", true, false, false},
		{"even", false, false, false},
		{"odd", false, false, false},
	}
	for _, c := range cases {
		s := tbl.Lookup("fixture/sum." + c.fn)
		if s == nil {
			t.Errorf("%s: no summary", c.fn)
			continue
		}
		rel := len(s.ParamReleases) > 0 && s.ParamReleases[0]
		sto := len(s.ParamStores) > 0 && s.ParamStores[0]
		own := len(s.ResultOwned) > 0 && s.ResultOwned[0]
		if rel != c.release || sto != c.store || own != c.owned {
			t.Errorf("%s: got release=%v store=%v owned=%v, want %v %v %v",
				c.fn, rel, sto, own, c.release, c.store, c.owned)
		}
	}
}

func TestSummaryTableIdempotentAndCounted(t *testing.T) {
	pkg := loadInline(t, "fixture/sum", sumSrc)
	tbl := NewSummaryTable()
	first := ComputeSummaries(pkg, sumCfg, tbl)
	if first == 0 {
		t.Fatal("no summaries computed")
	}
	if tbl.Size() != first {
		t.Errorf("table size %d != computed %d", tbl.Size(), first)
	}
	if again := ComputeSummaries(pkg, sumCfg, tbl); again != 0 {
		t.Errorf("second ComputeSummaries recomputed %d; the pass must be idempotent", again)
	}
	before, _ := tbl.CacheStats()
	if tbl.Lookup("fixture/sum.release") == nil {
		t.Fatal("lookup of a summarized function missed")
	}
	tbl.Lookup("fixture/sum.noSuchFunc")
	lookups, hits := tbl.CacheStats()
	if lookups != before+2 {
		t.Errorf("lookups = %d, want %d", lookups, before+2)
	}
	if hits < 1 || hits >= lookups {
		t.Errorf("hits = %d of %d lookups; the miss must not count as a hit", hits, lookups)
	}
}
