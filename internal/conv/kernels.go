package conv

// Word-at-a-time bulk kernels for the integer and pointer conversion
// ops. Each rewrites a packed region in place; the compiled-plan
// executor in plan.go picks them per op, so a whole page of one basic
// type is converted by a single unrolled loop instead of one indirect
// call per element.

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/vaxfloat"
)

// bswap16Region byte-swaps every 16-bit element of buf, four at a time.
func bswap16Region(buf []byte) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := binary.LittleEndian.Uint64(buf[i:])
		v = v>>8&0x00ff00ff00ff00ff | v&0x00ff00ff00ff00ff<<8
		binary.LittleEndian.PutUint64(buf[i:], v)
	}
	for ; i+2 <= len(buf); i += 2 {
		buf[i], buf[i+1] = buf[i+1], buf[i]
	}
}

// bswap32Region byte-swaps every 32-bit element of buf, two at a time.
func bswap32Region(buf []byte) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := binary.LittleEndian.Uint64(buf[i:])
		v = v>>24&0x000000ff000000ff |
			v>>8&0x0000ff000000ff00 |
			v&0x0000ff000000ff00<<8 |
			v&0x000000ff000000ff<<24
		binary.LittleEndian.PutUint64(buf[i:], v)
	}
	if i+4 <= len(buf) {
		binary.LittleEndian.PutUint32(buf[i:],
			bits.ReverseBytes32(binary.LittleEndian.Uint32(buf[i:])))
	}
}

// bswap64Region byte-swaps every 64-bit element of buf.
func bswap64Region(buf []byte) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:],
			bits.ReverseBytes64(binary.LittleEndian.Uint64(buf[i:])))
	}
}

// ptrRegion rebases every 32-bit DSM pointer in buf by ptrOff,
// translating between the source and destination byte orders. The null
// pointer is universal and is not rebased, exactly as in the
// per-element routine.
func ptrRegion(buf []byte, srcBig, dstBig bool, ptrOff int32) {
	for i := 0; i+4 <= len(buf); i += 4 {
		v := binary.LittleEndian.Uint32(buf[i:])
		if srcBig {
			v = bits.ReverseBytes32(v)
		}
		if v != 0 {
			v = uint32(int32(v) + ptrOff)
		}
		if dstBig {
			v = bits.ReverseBytes32(v)
		}
		binary.LittleEndian.PutUint32(buf[i:], v)
	}
}

// The span kernels below move a packed run of elements between seg, a
// stretch of page bytes in a's native representation, and a Go slice:
// the bulk forms of conv.go's Get*/Put*, for the DSM typed accessors. They
// handle len(seg)/size elements. The byte order and float format are
// tested once per span, not once per element, and the loops call the
// concrete binary.BigEndian / LittleEndian so the loads inline; VAX
// floats still go through vaxfloat one element at a time.

// GetInt16s decodes seg into dst.
func GetInt16s(a arch.Arch, seg []byte, dst []int16) {
	dst = dst[:len(seg)/2]
	if a.Order == arch.BigEndian {
		for i := range dst {
			dst[i] = int16(binary.BigEndian.Uint16(seg[2*i:]))
		}
		return
	}
	for i := range dst {
		dst[i] = int16(binary.LittleEndian.Uint16(seg[2*i:]))
	}
}

// PutInt16s encodes src into seg.
func PutInt16s(a arch.Arch, seg []byte, src []int16) {
	src = src[:len(seg)/2]
	if a.Order == arch.BigEndian {
		for i, v := range src {
			binary.BigEndian.PutUint16(seg[2*i:], uint16(v))
		}
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint16(seg[2*i:], uint16(v))
	}
}

// GetInt32s decodes seg into dst.
func GetInt32s(a arch.Arch, seg []byte, dst []int32) {
	dst = dst[:len(seg)/4]
	if a.Order == arch.BigEndian {
		for i := range dst {
			dst[i] = int32(binary.BigEndian.Uint32(seg[4*i:]))
		}
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(seg[4*i:]))
	}
}

// PutInt32s encodes src into seg.
func PutInt32s(a arch.Arch, seg []byte, src []int32) {
	src = src[:len(seg)/4]
	if a.Order == arch.BigEndian {
		for i, v := range src {
			binary.BigEndian.PutUint32(seg[4*i:], uint32(v))
		}
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(seg[4*i:], uint32(v))
	}
}

// GetFloat32s decodes seg into dst (IEEE or VAX F; a VAX reserved
// operand reads as NaN).
func GetFloat32s(a arch.Arch, seg []byte, dst []float32) {
	dst = dst[:len(seg)/4]
	switch {
	case a.Floats != arch.IEEE754:
		for i := range dst {
			v, _ := vaxfloat.DecodeF(seg[4*i:])
			dst[i] = float32(v)
		}
	case a.Order == arch.BigEndian:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.BigEndian.Uint32(seg[4*i:]))
		}
	default:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(seg[4*i:]))
		}
	}
}

// PutFloat32s encodes src into seg and reports what the VAX F encoding
// clamped, flushed or could not represent.
func PutFloat32s(a arch.Arch, seg []byte, src []float32) Report {
	src = src[:len(seg)/4]
	rep := Report{Elements: len(src)}
	switch {
	case a.Floats != arch.IEEE754:
		for i, v := range src {
			rep.note(vaxfloat.EncodeF(float64(v), seg[4*i:]))
		}
	case a.Order == arch.BigEndian:
		for i, v := range src {
			binary.BigEndian.PutUint32(seg[4*i:], math.Float32bits(v))
		}
	default:
		for i, v := range src {
			binary.LittleEndian.PutUint32(seg[4*i:], math.Float32bits(v))
		}
	}
	return rep
}

// GetFloat64s decodes seg into dst (IEEE or VAX G).
func GetFloat64s(a arch.Arch, seg []byte, dst []float64) {
	dst = dst[:len(seg)/8]
	switch {
	case a.Floats != arch.IEEE754:
		for i := range dst {
			dst[i], _ = vaxfloat.DecodeG(seg[8*i:])
		}
	case a.Order == arch.BigEndian:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.BigEndian.Uint64(seg[8*i:]))
		}
	default:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(seg[8*i:]))
		}
	}
}

// PutFloat64s encodes src into seg and reports what the VAX G encoding
// clamped, flushed or could not represent.
func PutFloat64s(a arch.Arch, seg []byte, src []float64) Report {
	src = src[:len(seg)/8]
	rep := Report{Elements: len(src)}
	switch {
	case a.Floats != arch.IEEE754:
		for i, v := range src {
			rep.note(vaxfloat.EncodeG(v, seg[8*i:]))
		}
	case a.Order == arch.BigEndian:
		for i, v := range src {
			binary.BigEndian.PutUint64(seg[8*i:], math.Float64bits(v))
		}
	default:
		for i, v := range src {
			binary.LittleEndian.PutUint64(seg[8*i:], math.Float64bits(v))
		}
	}
	return rep
}
