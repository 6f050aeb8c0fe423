package conv

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// TestDiffBuildApply pins the basic lifecycle: a diff built from two
// images, round-tripped through the wire form, applied to the old image,
// reproduces the new image exactly.
func TestDiffBuildApply(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	for _, id := range []TypeID{Char, Int16, Int32, Float32, Float64, Pointer} {
		typ := r.MustGet(id)
		for trial := 0; trial < 16; trial++ {
			n := (1 + rng.Intn(200)) * typ.Size
			old := make([]byte, n)
			fillRandom(t, rng, old)
			new := append([]byte(nil), old...)
			// Mutate a random subset of elements, some adjacent.
			for e := 0; e*typ.Size < n; e++ {
				if rng.Intn(4) == 0 {
					new[e*typ.Size+rng.Intn(typ.Size)] ^= 0x5a
				}
			}
			d, err := r.BuildDiff(id, old, new)
			if err != nil {
				t.Fatal(err)
			}
			wire := make([]byte, d.EncodedSize())
			if got := d.EncodeTo(wire); got != len(wire) {
				t.Fatalf("EncodeTo wrote %d of %d bytes", got, len(wire))
			}
			dec, err := DecodeDiff(id, typ.Size, wire)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Elements() != d.Elements() || len(dec.Runs) != len(d.Runs) {
				t.Fatalf("decode mismatch: %d runs/%d elems, want %d/%d",
					len(dec.Runs), dec.Elements(), len(d.Runs), d.Elements())
			}
			got := append([]byte(nil), old...)
			if err := r.Apply(&dec, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, new) {
				t.Fatalf("type %d: apply(diff, old) != new", id)
			}
		}
	}
}

// TestDiffEmpty pins that identical images produce an empty diff whose
// application is a no-op.
func TestDiffEmpty(t *testing.T) {
	r := NewRegistry()
	img := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	d, err := r.BuildDiff(Int32, img, img)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.Elements() != 0 {
		t.Fatalf("diff of identical images not empty: %+v", d)
	}
	cp := append([]byte(nil), img...)
	if err := r.Apply(&d, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp, img) {
		t.Fatal("empty diff changed the image")
	}
}

// TestDiffCoalesce pins run coalescing: adjacent changed elements form
// one run.
func TestDiffCoalesce(t *testing.T) {
	r := NewRegistry()
	old := make([]byte, 10*4)
	new := append([]byte(nil), old...)
	for _, e := range []int{2, 3, 4, 7} {
		new[e*4] = 0xff
	}
	d, err := r.BuildDiff(Int32, old, new)
	if err != nil {
		t.Fatal(err)
	}
	want := []DiffRun{{Elem: 2, Count: 3}, {Elem: 7, Count: 1}}
	if len(d.Runs) != len(want) || d.Runs[0] != want[0] || d.Runs[1] != want[1] {
		t.Fatalf("runs = %+v, want %+v", d.Runs, want)
	}
	if len(d.Data) != 4*4 {
		t.Fatalf("payload %d bytes, want 16", len(d.Data))
	}
}

// elementLoopDiff is BuildDiff as an element-by-element compare: the
// reference the word-skipping scan must reproduce exactly.
func elementLoopDiff(id TypeID, sz int, old, new []byte) Diff {
	d := Diff{Type: id}
	for e := 0; e < len(old)/sz; e++ {
		off := e * sz
		if bytes.Equal(old[off:off+sz], new[off:off+sz]) {
			continue
		}
		if k := len(d.Runs); k > 0 && d.Runs[k-1].Elem+d.Runs[k-1].Count == uint32(e) {
			d.Runs[k-1].Count++
		} else {
			d.Runs = append(d.Runs, DiffRun{Elem: uint32(e), Count: 1})
		}
		d.Data = append(d.Data, new[off:off+sz]...)
	}
	return d
}

// TestBuildDiffMatchesElementLoop holds BuildDiff to the element loop,
// byte for byte in the wire form and run for run: Int32, Float64 and
// 16-byte record pages, a whole page and one whose length is no multiple
// of a word, each element changed with odds from 1 in 64 (sparse) to 1
// in 2 (dense), at a random byte within it.
func TestBuildDiffMatchesElementLoop(t *testing.T) {
	r := NewRegistry()
	rec, err := r.RegisterStruct("diff-record", []Field{{Type: Int32, Count: 2}, {Type: Float64, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sz := r.MustGet(rec).Size; sz != 16 {
		t.Fatalf("record is %d bytes, want 16", sz)
	}
	rng := rand.New(rand.NewSource(5))
	for _, id := range []TypeID{Int32, Float64, rec} {
		sz := r.MustGet(id).Size
		for _, n := range []int{8192, 8192 - 3*sz} {
			for _, odds := range []int{64, 16, 4, 2} {
				for trial := 0; trial < 8; trial++ {
					old := make([]byte, n)
					fillRandom(t, rng, old)
					new := append([]byte(nil), old...)
					for e := 0; e < n/sz; e++ {
						if rng.Intn(odds) == 0 {
							new[e*sz+rng.Intn(sz)] ^= byte(1 + rng.Intn(255))
						}
					}
					got, err := r.BuildDiff(id, old, new)
					if err != nil {
						t.Fatal(err)
					}
					want := elementLoopDiff(id, sz, old, new)
					gw, ww := make([]byte, got.EncodedSize()), make([]byte, want.EncodedSize())
					got.EncodeTo(gw)
					want.EncodeTo(ww)
					if !bytes.Equal(gw, ww) || !slices.Equal(got.Runs, want.Runs) || !bytes.Equal(got.Data, want.Data) {
						t.Fatalf("type %d, %d bytes, 1 in %d changed: BuildDiff gave %d runs of %d elements, the element loop %d of %d",
							id, n, odds, len(got.Runs), got.Elements(), len(want.Runs), want.Elements())
					}
				}
			}
		}
	}
}

// TestDiffDecodeRejects pins the decoder's bounds checks.
func TestDiffDecodeRejects(t *testing.T) {
	if _, err := DecodeDiff(Int32, 4, []byte{1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
	// Header claims one run but no run entry follows.
	if _, err := DecodeDiff(Int32, 4, []byte{0, 0, 0, 1}); err == nil {
		t.Error("missing run entry accepted")
	}
	// One run of two elements but payload holds one.
	buf := make([]byte, 4+8+4)
	buf[3] = 1  // nruns=1
	buf[11] = 2 // count=2
	if _, err := DecodeDiff(Int32, 4, buf); err == nil {
		t.Error("short payload accepted")
	}
}

// TestViewDiffAliasesWire pins what sets ViewDiff apart from DecodeDiff:
// the payload is the wire buffer's own bytes, so a conversion in place
// changes the buffer, while DecodeDiff's copy does not follow it.
func TestViewDiffAliasesWire(t *testing.T) {
	d := Diff{Type: Int32, Runs: []DiffRun{{Elem: 3, Count: 2}}, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	wire := make([]byte, d.EncodedSize())
	d.EncodeTo(wire)
	view, err := ViewDiff(Int32, 4, wire)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := DecodeDiff(Int32, 4, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Runs) != 1 || view.Runs[0] != d.Runs[0] || !bytes.Equal(view.Data, d.Data) {
		t.Fatalf("ViewDiff decoded %+v, want %+v", view, d)
	}
	view.Data[0] = 9
	if wire[len(wire)-8] != 9 || copied.Data[0] != 1 {
		t.Fatalf("after a write through the view: wire byte %d, decoded copy byte %d; want 9 and 1", wire[len(wire)-8], copied.Data[0])
	}
}

// diffConvertCheck asserts the composition property: converting the old
// image and applying the converted diff is bit-identical to converting
// the new image whole. This is what lets RC ship diffs between
// incompatible machines with the page conversion machinery unchanged.
func diffConvertCheck(t *testing.T, r *Registry, id TypeID, old, new []byte, from, to arch.Arch, ptrOff int32) {
	t.Helper()
	d, err := r.BuildDiff(id, old, new)
	if err != nil {
		t.Fatal(err)
	}
	// Wire round-trip, as the release path ships it.
	wire := make([]byte, d.EncodedSize())
	d.EncodeTo(wire)
	dec, err := DecodeDiff(id, r.MustGet(id).Size, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ConvertDiff(&dec, from, to, ptrOff); err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), old...)
	if _, err := r.ConvertRegion(id, got, from, to, ptrOff); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(&dec, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), new...)
	if _, err := r.ConvertRegion(id, want, from, to, ptrOff); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("type %d %v→%v: byte %d differs: diff-path=%02x page-path=%02x",
					id, from.Kind, to.Kind, i, got[i], want[i])
			}
		}
	}
}

// TestDiffConvertMatchesPage drives the composition property over every
// basic type, every architecture pair, and buffers laced with the float
// special values (NaN, Inf, denormals, VAX reserved operands) and null
// pointers.
func TestDiffConvertMatchesPage(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(11))
	for _, pair := range archPairs() {
		for _, id := range []TypeID{Char, Int16, Int32, Float32, Float64, Pointer} {
			typ := r.MustGet(id)
			for trial := 0; trial < 6; trial++ {
				n := (1 + rng.Intn(200)) * typ.Size
				old := make([]byte, n)
				fillRandom(t, rng, old)
				switch id {
				case Float32:
					sprinkle32(rng, old, specialFloat32Bits)
					sprinkle32(rng, old, vaxSpecialWords)
				case Float64:
					sprinkle64(rng, old, specialFloat64Bits)
				}
				new := append([]byte(nil), old...)
				for e := 0; e*typ.Size < n; e++ {
					if rng.Intn(3) == 0 {
						fillRandom(t, rng, new[e*typ.Size:(e+1)*typ.Size])
					}
				}
				switch id {
				case Float32:
					sprinkle32(rng, new, specialFloat32Bits)
				case Float64:
					sprinkle64(rng, new, specialFloat64Bits)
				case Pointer:
					for i := 0; i+4 <= len(new); i += 4 {
						if rng.Intn(5) == 0 {
							copy(new[i:i+4], []byte{0, 0, 0, 0})
						}
					}
				}
				ptrOff := int32(rng.Intn(1<<20) - 1<<19)
				diffConvertCheck(t, r, id, old, new, pair[0], pair[1], ptrOff)
			}
		}
	}
}

// FuzzDiffConvert fuzzes the composition property directly: arbitrary
// old/new images through every basic type and a nested compound, diff
// apply+convert vs whole-page convert, all architecture pairs.
func FuzzDiffConvert(f *testing.F) {
	f.Add([]byte{0x7f, 0x80, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00},
		[]byte{0xff, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, uint8(4), int32(4096))
	f.Add(bytes.Repeat([]byte{0x00}, 32), bytes.Repeat([]byte{0xa5}, 32), uint8(3), int32(-65536))
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 3, 4}, uint8(6), int32(0))
	r := NewRegistry()
	compound, err := r.RegisterStruct("dz", []Field{
		{Type: Int16, Count: 1},
		{Type: Float32, Count: 2},
		{Type: Float64, Count: 1},
		{Type: Pointer, Count: 1},
		{Type: Char, Count: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	ids := []TypeID{Char, Int16, Int32, Float32, Float64, Pointer, compound}
	pairs := archPairs()
	f.Fuzz(func(t *testing.T, old, new []byte, sel uint8, ptrOff int32) {
		id := ids[int(sel)%len(ids)]
		typ := r.MustGet(id)
		n := min(len(old), len(new)) / typ.Size * typ.Size
		for _, pair := range pairs {
			diffConvertCheck(t, r, id, old[:n], new[:n], pair[0], pair[1], ptrOff)
		}
	})
}
