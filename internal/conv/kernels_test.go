package conv

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// spanCorpus is the byte material the span kernels are checked on:
// FuzzConvertDiff's seeds, every special float pattern of the plan
// differential tests in both byte orders (so each lands as NaN, Inf,
// denormal, overflow boundary or VAX reserved operand on some
// architecture), and seeded random bytes.
func spanCorpus(t *testing.T) [][]byte {
	corpus := append([][]byte(nil), fuzzSeedBytes...)
	var special []byte
	for _, order := range []binary.AppendByteOrder{binary.LittleEndian, binary.BigEndian} {
		for _, w := range specialFloat32Bits {
			special = order.AppendUint32(special, w)
		}
		for _, w := range vaxSpecialWords {
			special = order.AppendUint32(special, w)
		}
		for _, w := range specialFloat64Bits {
			special = order.AppendUint64(special, w)
		}
	}
	corpus = append(corpus, special[:len(special)/8*8])
	random := make([]byte, 4096)
	fillRandom(t, rand.New(rand.NewSource(21)), random)
	return append(corpus, random)
}

// spanArchs are the four byte-order × float-format combinations: the
// paper's two machines and the synthetic two of the plan tests.
func spanArchs() []arch.Arch {
	return []arch.Arch{arch.SunArch, arch.FireflyArch, ieeeLittle, vaxBig}
}

// TestSpanKernelsMatchPerElement: every bulk Get*s/Put*s against a loop
// over the per-element Get*/Put* — decoded values bit for bit (NaN
// payloads included), encoded bytes, and the Report against the
// per-element Outcomes.
func TestSpanKernelsMatchPerElement(t *testing.T) {
	for _, a := range spanArchs() {
		var seen Report // every anomaly the float encoders reported on a
		for ci, seg := range spanCorpus(t) {
			seg = seg[:len(seg)/8*8]
			n16, n32, n64 := len(seg)/2, len(seg)/4, len(seg)/8

			i16 := make([]int16, n16)
			GetInt16s(a, seg, i16)
			for i := range i16 {
				if want := GetInt16(a, seg[2*i:]); i16[i] != want {
					t.Fatalf("%v corpus %d: GetInt16s[%d] = %d, want %d", a, ci, i, i16[i], want)
				}
			}
			i32 := make([]int32, n32)
			GetInt32s(a, seg, i32)
			for i := range i32 {
				if want := GetInt32(a, seg[4*i:]); i32[i] != want {
					t.Fatalf("%v corpus %d: GetInt32s[%d] = %d, want %d", a, ci, i, i32[i], want)
				}
			}
			f32 := make([]float32, n32)
			GetFloat32s(a, seg, f32)
			for i := range f32 {
				if want := GetFloat32(a, seg[4*i:]); math.Float32bits(f32[i]) != math.Float32bits(want) {
					t.Fatalf("%v corpus %d: GetFloat32s[%d] = %v, want %v", a, ci, i, f32[i], want)
				}
			}
			f64 := make([]float64, n64)
			GetFloat64s(a, seg, f64)
			for i := range f64 {
				if want := GetFloat64(a, seg[8*i:]); math.Float64bits(f64[i]) != math.Float64bits(want) {
					t.Fatalf("%v corpus %d: GetFloat64s[%d] = %v, want %v", a, ci, i, f64[i], want)
				}
			}

			// Encode what was decoded — and, for the floats, the raw
			// IEEE reading of the bytes too, which reaches the NaNs,
			// infinities and out-of-range magnitudes a VAX cannot hold.
			bulk, ref := make([]byte, len(seg)), make([]byte, len(seg))
			same := func(what string) {
				t.Helper()
				if !bytes.Equal(bulk, ref) {
					t.Fatalf("%v corpus %d: %s wrote %x, per element %x", a, ci, what, bulk, ref)
				}
			}
			PutInt16s(a, bulk, i16)
			for i, v := range i16 {
				PutInt16(a, ref[2*i:], v)
			}
			same("PutInt16s")
			PutInt32s(a, bulk, i32)
			for i, v := range i32 {
				PutInt32(a, ref[4*i:], v)
			}
			same("PutInt32s")

			raw32, raw64 := make([]float32, n32), make([]float64, n64)
			for i := range raw32 {
				raw32[i] = math.Float32frombits(binary.BigEndian.Uint32(seg[4*i:]))
			}
			for i := range raw64 {
				raw64[i] = math.Float64frombits(binary.BigEndian.Uint64(seg[8*i:]))
			}
			for _, src := range [][]float32{f32, raw32} {
				rep, want := PutFloat32s(a, bulk, src), Report{Elements: len(src)}
				for i, v := range src {
					want.note(PutFloat32(a, ref[4*i:], v))
				}
				same("PutFloat32s")
				if rep != want {
					t.Fatalf("%v corpus %d: PutFloat32s reports %+v, per element %+v", a, ci, rep, want)
				}
				seen.Add(rep)
			}
			for _, src := range [][]float64{f64, raw64} {
				rep, want := PutFloat64s(a, bulk, src), Report{Elements: len(src)}
				for i, v := range src {
					want.note(PutFloat64(a, ref[8*i:], v))
				}
				same("PutFloat64s")
				if rep != want {
					t.Fatalf("%v corpus %d: PutFloat64s reports %+v, per element %+v", a, ci, rep, want)
				}
				seen.Add(rep)
			}
		}
		if vax := a.Floats != arch.IEEE754; vax != (seen.Overflows > 0 && seen.Underflows > 0 && seen.NaNs > 0) {
			t.Errorf("%v: the corpus drew %+v from the float encoders", a, seen)
		}
	}
}

// TestSpanKernelsStopAtTheSegment: a kernel handles len(seg)/size
// elements and leaves the rest of the slice alone — the accessors hand
// it the remainder of the caller's slice at every page span.
func TestSpanKernelsStopAtTheSegment(t *testing.T) {
	seg := []byte{0, 0, 0, 1, 0, 0, 0, 2}
	dst := [3]int32{-1, -1, -1}
	GetInt32s(arch.SunArch, seg, dst[:])
	if dst != [3]int32{1, 2, -1} {
		t.Errorf("GetInt32s decoded %v from a two-element segment", dst)
	}
}
