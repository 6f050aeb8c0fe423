package conv

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// The two byte-order × float-format combinations no real machine here
// has.
var (
	ieeeLittle = arch.Arch{Kind: arch.Sun, Order: arch.LittleEndian, Floats: arch.IEEE754, PageSize: 8192, MaxCPUs: 1}
	vaxBig     = arch.Arch{Kind: arch.Firefly, Order: arch.BigEndian, Floats: arch.VAXFloat, PageSize: 1024, MaxCPUs: 1}
)

// archPairs are the conversion directions the differential tests cover:
// the paper's two machines in both directions, plus synthetic pairs that
// exercise the same-float-format/different-byte-order legs of the float
// converters (not reachable with Sun and Firefly alone).
func archPairs() [][2]arch.Arch {
	return [][2]arch.Arch{
		{arch.SunArch, arch.FireflyArch},
		{arch.FireflyArch, arch.SunArch},
		{arch.SunArch, ieeeLittle}, // IEEE↔IEEE, order swap
		{ieeeLittle, arch.SunArch},
		{arch.FireflyArch, vaxBig},     // VAX↔VAX, order swap
		{ieeeLittle, arch.FireflyArch}, // IEEE little → VAX little (no swap, format change)
		{arch.FireflyArch, ieeeLittle},
	}
}

// specialFloat32Bits are IEEE single patterns that force the slow path.
var specialFloat32Bits = []uint32{
	0x00000000, // +0
	0x80000000, // -0
	0x7f800000, // +Inf
	0xff800000, // -Inf
	0x7fc00001, // quiet NaN
	0x7f800001, // signalling NaN
	0x00000001, // smallest denormal
	0x007fffff, // largest denormal
	0x00800000, // smallest normal (underflows to VAX F? exp=1 → fast path)
	0x7f7fffff, // largest normal (overflows VAX F)
	0x7f000000, // exp 254: overflow boundary
	0x01000000, // exp 2
	0x3f800001, // 1.0 + ulp
	math.Float32bits(1.0),
	math.Float32bits(-123.456),
}

// specialFloat64Bits are IEEE double patterns that force the slow path.
var specialFloat64Bits = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x7ff8000000000001, // quiet NaN
	0x7ff0000000000001, // signalling NaN
	0x0000000000000001, // smallest denormal
	0x000fffffffffffff, // largest denormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // largest normal (overflows VAX G)
	0x7fe0000000000000, // exp 2046: overflow boundary
	0x0020000000000000, // exp 2
	math.Float64bits(1.0),
	math.Float64bits(-98765.4321),
}

// vaxSpecialWords are VAX 32-bit patterns (in the canonical word layout)
// covering zero, the reserved operand, and the low exponents that land
// in IEEE's denormal range.
var vaxSpecialWords = []uint32{
	0x00000000,          // true zero
	0x00008000,          // reserved operand (sign=1, exp=0)
	0x12348000 | 0x0080, // exp=1: IEEE denormal range
	0x43210100,          // exp=2
	0x00000180,          // exp=3: fast-path boundary
	0xffffff7f,          // large magnitude
}

func fillRandom(t *testing.T, rng *rand.Rand, buf []byte) {
	t.Helper()
	if _, err := rng.Read(buf); err != nil {
		t.Fatal(err)
	}
}

// sprinkle writes special element patterns over parts of buf.
func sprinkle32(rng *rand.Rand, buf []byte, patterns []uint32) {
	for i := 0; i+4 <= len(buf); i += 4 {
		if rng.Intn(3) == 0 {
			binary.LittleEndian.PutUint32(buf[i:], patterns[rng.Intn(len(patterns))])
		}
	}
}

func sprinkle64(rng *rand.Rand, buf []byte, patterns []uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		if rng.Intn(3) == 0 {
			binary.LittleEndian.PutUint64(buf[i:], patterns[rng.Intn(len(patterns))])
		}
	}
}

// diffCheck runs both paths over identical copies of buf and fails on
// any divergence in output bytes, Report, or error.
func diffCheck(t *testing.T, r *Registry, id TypeID, buf []byte, from, to arch.Arch, ptrOff int32) {
	t.Helper()
	fast := append([]byte(nil), buf...)
	ref := append([]byte(nil), buf...)
	fastRep, fastErr := r.ConvertRegion(id, fast, from, to, ptrOff)
	refRep, refErr := r.ConvertRegionReference(id, ref, from, to, ptrOff)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("type %d %v→%v: error mismatch: fast=%v ref=%v", id, from.Kind, to.Kind, fastErr, refErr)
	}
	if fastErr != nil {
		return
	}
	if fastRep != refRep {
		t.Errorf("type %d %v→%v: report mismatch: fast=%+v ref=%+v", id, from.Kind, to.Kind, fastRep, refRep)
	}
	if !bytes.Equal(fast, ref) {
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("type %d %v→%v: byte %d differs: fast=%02x ref=%02x (in=%02x)",
					id, from.Kind, to.Kind, i, fast[i], ref[i], buf[i])
			}
		}
	}
}

// TestPlanMatchesReferenceBasic drives every basic type through every
// architecture pair with random and special-value-laden buffers.
func TestPlanMatchesReferenceBasic(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(1))
	for _, pair := range archPairs() {
		from, to := pair[0], pair[1]
		for _, id := range []TypeID{Char, Int16, Int32, Float32, Float64, Pointer} {
			typ := r.MustGet(id)
			for trial := 0; trial < 8; trial++ {
				n := (1 + rng.Intn(300)) * typ.Size
				buf := make([]byte, n)
				fillRandom(t, rng, buf)
				switch id {
				case Float32:
					sprinkle32(rng, buf, specialFloat32Bits)
					sprinkle32(rng, buf, vaxSpecialWords)
				case Float64:
					sprinkle64(rng, buf, specialFloat64Bits)
				case Pointer:
					if trial%2 == 0 {
						// Make some pointers null to hit the no-rebase rule.
						for i := 0; i+4 <= len(buf); i += 4 {
							if rng.Intn(4) == 0 {
								copy(buf[i:i+4], []byte{0, 0, 0, 0})
							}
						}
					}
				}
				ptrOff := int32(rng.Intn(1<<20) - 1<<19)
				diffCheck(t, r, id, buf, from, to, ptrOff)
			}
		}
	}
}

// TestPlanMatchesReferenceCompound covers nested compound types:
// struct-of-basics with arrays, struct-of-struct, and a compound that
// coalesces to a single op.
func TestPlanMatchesReferenceCompound(t *testing.T) {
	r := NewRegistry()
	inner, err := r.RegisterStruct("inner", []Field{
		{Type: Int16, Count: 2},
		{Type: Float32, Count: 1},
		{Type: Pointer, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := r.RegisterStruct("outer", []Field{
		{Type: Char, Count: 3},
		{Type: inner, Count: 2},
		{Type: Float64, Count: 4},
		{Type: Int32, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	coalesced, err := r.RegisterStruct("vec", []Field{
		{Type: Int32, Count: 7},
		{Type: Int32, Count: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MustGet(coalesced).PlanOps(); got != "swap32×16" {
		t.Errorf("coalesced plan = %q, want swap32×16", got)
	}
	rng := rand.New(rand.NewSource(2))
	for _, pair := range archPairs() {
		from, to := pair[0], pair[1]
		for _, id := range []TypeID{inner, outer, coalesced} {
			typ := r.MustGet(id)
			for trial := 0; trial < 6; trial++ {
				n := (1 + rng.Intn(40)) * typ.Size
				buf := make([]byte, n)
				fillRandom(t, rng, buf)
				sprinkle32(rng, buf, specialFloat32Bits)
				sprinkle64(rng, buf, specialFloat64Bits)
				diffCheck(t, r, id, buf, from, to, int32(rng.Intn(1<<16)))
			}
		}
	}
}

// TestCustomTypeHasNoPlan pins the contract that custom conversion
// routines bypass the plan machinery entirely, as does any compound
// containing one.
func TestCustomTypeHasNoPlan(t *testing.T) {
	r := NewRegistry()
	custom, err := r.RegisterCustom("opaque", 4, CostUnits{Bytes: 4},
		func(elem []byte, from, to arch.Arch, _ int32, _ *Report) error {
			elem[0] ^= 0xff
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if r.MustGet(custom).PlanOps() != "" {
		t.Error("custom type unexpectedly has a plan")
	}
	wrapper, err := r.RegisterStruct("wrap", []Field{{Type: Int32, Count: 1}, {Type: custom, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.MustGet(wrapper).PlanOps() != "" {
		t.Error("compound containing a custom type unexpectedly has a plan")
	}
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	rep, err := r.ConvertRegion(wrapper, buf, arch.SunArch, arch.FireflyArch, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{4, 3, 2, 1, ^byte(5), 6, 7, 8}
	if !bytes.Equal(buf, want) {
		t.Errorf("custom path output = %v, want %v", buf, want)
	}
	if rep.Elements != 1 {
		t.Errorf("Elements = %d, want 1", rep.Elements)
	}
}

// TestDenseRegistryLookup pins the dense-slice lookup: sequentially
// registered types resolve without touching the overflow map, and
// unknown identifiers (both within and beyond the dense range) miss.
func TestDenseRegistryLookup(t *testing.T) {
	r := NewRegistry()
	id, err := r.RegisterStruct("s", []Field{{Type: Int32, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if id != FirstUserType {
		t.Fatalf("first user type = %d, want %d", id, FirstUserType)
	}
	if r.overflow != nil {
		t.Error("sequential registration spilled into the overflow map")
	}
	if _, ok := r.Get(99); ok {
		t.Error("unregistered id 99 resolved")
	}
	if _, ok := r.Get(denseCap + 5); ok {
		t.Error("id beyond dense range resolved")
	}
	if got := r.MustGet(id).PlanOps(); got != "swap32×2" {
		t.Errorf("plan = %q, want swap32×2", got)
	}
}

// fuzzSeedBytes is FuzzConvertDiff's seed corpus; the span-kernel
// differential test reads the same bytes as every element type.
var fuzzSeedBytes = [][]byte{
	{0x7f, 0x80, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00},
	{0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x80},
	bytes.Repeat([]byte{0xa5}, 64),
}

// FuzzConvertDiff fuzzes the differential property directly: arbitrary
// bytes through every basic type and a nested compound, plan vs
// reference, all architecture pairs.
func FuzzConvertDiff(f *testing.F) {
	f.Add(fuzzSeedBytes[0], uint8(0), int32(64))
	f.Add(fuzzSeedBytes[1], uint8(4), int32(-4096))
	f.Add(fuzzSeedBytes[2], uint8(5), int32(0))
	r := NewRegistry()
	compound, err := r.RegisterStruct("fz", []Field{
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
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, ptrOff int32) {
		id := ids[int(sel)%len(ids)]
		typ := r.MustGet(id)
		n := len(data) / typ.Size * typ.Size
		for _, pair := range pairs {
			diffCheck(t, r, id, data[:n], pair[0], pair[1], ptrOff)
		}
	})
}
