package dsm

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/sim"
)

// TestConvertInGuardAndCharge pins the one conversion hook's contract,
// through each receive step that reaches it: a body that needs no
// conversion — same-kind source, empty, or the skip-conversion
// mutation — leaves bytes and virtual time untouched,
// and a foreign body charges exactly RegionConvertCost and counts one
// conversion. convertIn, receiveDiff (a one-run diff of the same
// elements) and storeRun must agree on the bytes as well.
func TestConvertInGuardAndCharge(t *testing.T) {
	const elems = 5
	cases := []struct {
		name    string
		opts    []rigOpt
		src     arch.Kind
		n       int
		foreign bool
	}{
		{"same-kind source", nil, arch.Firefly, elems, false},
		{"empty body", nil, arch.Sun, 0, false},
		{"skip-conversion mutation", []rigOpt{withoutConversion()}, arch.Sun, elems, false},
		{"foreign body", nil, arch.Sun, elems, true},
	}
	// Each step receives data, n doubles in src's representation, for
	// page on m and returns the bytes it produced.
	steps := []struct {
		name string
		run  func(m *Module, p *sim.Proc, page PageNo, data []byte, src arch.Kind) []byte
	}{
		{"convertIn", func(m *Module, p *sim.Proc, page PageNo, data []byte, src arch.Kind) []byte {
			m.convertIn(p, page, data, src)
			return data
		}},
		{"receiveDiff", func(m *Module, p *sim.Proc, page PageNo, data []byte, src arch.Kind) []byte {
			d := conv.Diff{Type: conv.Float64, Data: data}
			if len(data) > 0 {
				d.Runs = []conv.DiffRun{{Count: uint32(len(data) / 8)}}
			}
			wire := make([]byte, d.EncodedSize())
			d.EncodeTo(wire)
			return m.receiveDiff(p, page, wire, src, true).Data
		}},
		{"storeRun", func(m *Module, p *sim.Proc, page PageNo, data []byte, src arch.Kind) []byte {
			lp := m.localPageFor(page)
			m.storeRun(p, page, lp.data, data, src)
			return lp.data[:len(data)]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var first []byte // what convertIn produced
			for _, s := range steps {
				t.Run(s.name, func(t *testing.T) {
					r := newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, c.opts...)
					var before, got []byte
					var took sim.Duration
					var conversions int
					r.run("main", func(p *sim.Proc) {
						addr, err := r.mods[0].Alloc(p, conv.Float64, elems)
						if err != nil {
							t.Error(err)
							return
						}
						m := r.mods[1]
						before = make([]byte, 8*c.n)
						for i := range before {
							before[i] = byte(3*i + 1)
						}
						t0 := p.Now()
						got = s.run(m, p, m.PageOf(addr), bytes.Clone(before), c.src)
						took = p.Now().Sub(t0)
						conversions = m.Stats().Conversions
					})
					if first == nil {
						first = bytes.Clone(got)
					} else if !bytes.Equal(got, first) {
						t.Errorf("produced % x, convertIn produced % x", got, first)
					}
					if !c.foreign {
						if !bytes.Equal(before, got) || took != 0 || conversions != 0 {
							t.Fatalf("bytes changed=%v, took %v, %d conversions; want nothing touched",
								!bytes.Equal(before, got), took, conversions)
						}
						return
					}
					if bytes.Equal(before, got) {
						t.Error("a Sun body was installed verbatim on a Firefly")
					}
					want := r.cfg.Params.RegionConvertCost(arch.Firefly, r.cfg.Registry.MustGet(conv.Float64).Cost, elems)
					if took != want || conversions != 1 {
						t.Fatalf("took %v with %d conversions, want exactly %v and 1", took, conversions, want)
					}
				})
			}
		})
	}
}
