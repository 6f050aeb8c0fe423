package dsm

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/sim"
)

// TestConvertInGuardAndCharge pins the one conversion hook's contract:
// a body that needs no conversion — same-kind source, empty, conversion
// disabled, or the skip-conversion mutation — leaves bytes and virtual
// time untouched, and a foreign body charges exactly RegionConvertCost
// and counts one conversion.
func TestConvertInGuardAndCharge(t *testing.T) {
	const elems = 5
	untouched := []struct {
		name string
		opts []rigOpt
		src  arch.Kind
		n    int
	}{
		{"same-kind source", nil, arch.Firefly, elems},
		{"empty body", nil, arch.Sun, 0},
		{"conversion disabled", []rigOpt{withoutConversion()}, arch.Sun, elems},
		{"skip-conversion mutation", []rigOpt{func(c *Config) { c.Mutation = MutSkipConversion }}, arch.Sun, elems},
	}
	// body runs convertIn on the Firefly host for the first n doubles of
	// a freshly allocated page and reports what it cost.
	body := func(t *testing.T, opts []rigOpt, src arch.Kind, n int) (r *rig, before, after []byte, took sim.Duration, conversions int) {
		r = newRig(t, []arch.Kind{arch.Sun, arch.Firefly}, opts...)
		r.run("main", func(p *sim.Proc) {
			addr, err := r.mods[0].Alloc(p, conv.Float64, elems)
			if err != nil {
				t.Error(err)
				return
			}
			m := r.mods[1]
			before = make([]byte, 8*n)
			for i := range before {
				before[i] = byte(3*i + 1)
			}
			after = bytes.Clone(before)
			t0 := p.Now()
			m.convertIn(p, m.PageOf(addr), after, src)
			took = p.Now().Sub(t0)
			conversions = m.Stats().Conversions
		})
		return
	}
	for _, c := range untouched {
		t.Run(c.name, func(t *testing.T) {
			_, before, after, took, conversions := body(t, c.opts, c.src, c.n)
			if !bytes.Equal(before, after) || took != 0 || conversions != 0 {
				t.Fatalf("bytes changed=%v, took %v, %d conversions; want nothing touched",
					!bytes.Equal(before, after), took, conversions)
			}
		})
	}
	t.Run("foreign body", func(t *testing.T) {
		r, before, after, took, conversions := body(t, nil, arch.Sun, elems)
		if bytes.Equal(before, after) {
			t.Error("a Sun body was installed verbatim on a Firefly")
		}
		want := r.cfg.Params.RegionConvertCost(arch.Firefly, r.cfg.Registry.MustGet(conv.Float64).Cost, elems)
		if took != want || conversions != 1 {
			t.Fatalf("took %v with %d conversions, want exactly %v and 1", took, conversions, want)
		}
	})
}
