package dsm

import (
	"fmt"

	"repro/internal/conv"
	"repro/internal/sim"
)

// Typed accessors. Applications read and write shared memory through
// these; each call checks access rights on the spanned pages (the
// software analogue of the MMU check) and faults in whatever is missing,
// then moves bytes in the host's native representation. Element values
// therefore live in memory exactly as the paper's machines stored them —
// big-endian IEEE on a Sun, little-endian VAX-float on a Firefly — and
// only page migration converts them.
//
// Each accessor exists in two forms, and they share one failure
// contract. The E-suffixed form (ReadInt32sE, WriteBytesE, ...) returns
// every failure as an error: a misuse of the accessor (wrong type,
// unallocated or unaligned bytes, an unregistered struct type), and a
// failed protocol call, whose typed forms are ErrHostDown and
// ErrPageLost. The plain form (ReadInt32s, WriteBytes, ...) panics with
// the same error — the contract of callers that treat any failure as a
// bug, such as fault-free benchmark runs.

// checkTyped validates that [addr, addr+n) lies in pages allocated for
// type id, spans whole elements of it, and does not straddle an element
// across pages. A violation is a misuse of the accessor, returned as an
// error like any other failure of the access.
func (m *Module) checkTyped(addr Addr, id conv.TypeID, n int) error {
	t, ok := m.cfg.Registry.Get(id)
	if !ok {
		return fmt.Errorf("dsm: type %d not registered", id)
	}
	if n%t.Size != 0 {
		return fmt.Errorf("dsm: buffer of %d bytes not a multiple of %s size %d", n, t.Name, t.Size)
	}
	end := int(addr) + n
	if end > m.cfg.SpaceSize {
		return fmt.Errorf("dsm: access [%d,%d) beyond space of %d bytes", addr, end, m.cfg.SpaceSize)
	}
	if n == 0 {
		return nil // touches no page; at address 0, end-1 would wrap
	}
	for pg := m.PageOf(addr); pg <= m.PageOf(Addr(end-1)); pg++ {
		mt, ok := m.meta[pg]
		if !ok {
			return fmt.Errorf("dsm: access to unallocated page %d", pg)
		}
		if mt.typeID != id {
			have := m.cfg.Registry.MustGet(mt.typeID) // checked by Alloc
			return fmt.Errorf("dsm: page %d holds %s data, accessed as %s", pg, have.Name, t.Name)
		}
		pageStart := int(pg) * m.cfg.PageSize
		lo := max(int(addr), pageStart)
		hi := min(end, pageStart+m.cfg.PageSize)
		if hi > pageStart+mt.used {
			return fmt.Errorf("dsm: access [%d,%d) beyond the %d allocated bytes of page %d", lo, hi, mt.used, pg)
		}
		if (lo-pageStart)%t.Size != 0 {
			return fmt.Errorf("dsm: access at %d not aligned to %s elements", lo, t.Name)
		}
	}
	return nil
}

// readTyped checks a read of n bytes of type id at addr, then runs it,
// handing fn each page span.
func (m *Module) readTyped(p *sim.Proc, addr Addr, id conv.TypeID, n int, fn func(seg []byte, off int)) error {
	if err := m.checkTyped(addr, id, n); err != nil {
		return err
	}
	return m.readRegion(p, addr, n, fn)
}

// writeTyped checks a write of n bytes of type id at addr, then runs it,
// letting fill produce each page span.
func (m *Module) writeTyped(p *sim.Proc, addr Addr, id conv.TypeID, n int, fill func(seg []byte, off int)) error {
	if err := m.checkTyped(addr, id, n); err != nil {
		return err
	}
	return m.writeRegion(p, addr, n, fill)
}

// mustOK is the plain accessors' half of the contract: it panics with
// the error its E twin returned, prefixed with the host.
func (m *Module) mustOK(err error) {
	if err != nil {
		panic(fmt.Errorf("dsm: host %d: %w", m.id, err))
	}
}

// forEachSpan walks the per-page byte spans of [addr, addr+n), handing
// the local page buffer segment to fn. Access must already be ensured.
func (m *Module) forEachSpan(addr Addr, n int, fn func(seg []byte, off int)) {
	end := int(addr) + n
	off := 0
	for pos := int(addr); pos < end; {
		pg := m.PageOf(Addr(pos))
		pageStart := int(pg) * m.cfg.PageSize
		hi := min(end, pageStart+m.cfg.PageSize)
		lp := m.local[pg]
		fn(lp.data[pos-pageStart:hi-pageStart], off)
		off += hi - pos
		pos = hi
	}
}

// ReadBytes copies n raw bytes at addr into buf (Char pages).
func (m *Module) ReadBytes(p *sim.Proc, addr Addr, buf []byte) {
	m.mustOK(m.ReadBytesE(p, addr, buf))
}

// ReadBytesE is ReadBytes returning any failure.
func (m *Module) ReadBytesE(p *sim.Proc, addr Addr, buf []byte) error {
	return m.readTyped(p, addr, conv.Char, len(buf), func(seg []byte, off int) {
		copy(buf[off:], seg)
	})
}

// WriteBytes stores raw bytes at addr (Char pages).
func (m *Module) WriteBytes(p *sim.Proc, addr Addr, data []byte) {
	m.mustOK(m.WriteBytesE(p, addr, data))
}

// WriteBytesE is WriteBytes returning any failure.
func (m *Module) WriteBytesE(p *sim.Proc, addr Addr, data []byte) error {
	return m.writeTyped(p, addr, conv.Char, len(data), func(seg []byte, off int) {
		copy(seg, data[off:])
	})
}

// ReadInt32 loads one int32.
func (m *Module) ReadInt32(p *sim.Proc, addr Addr) int32 {
	var v [1]int32
	m.ReadInt32s(p, addr, v[:])
	return v[0]
}

// ReadInt32E is ReadInt32 returning any failure.
func (m *Module) ReadInt32E(p *sim.Proc, addr Addr) (int32, error) {
	var v [1]int32
	err := m.ReadInt32sE(p, addr, v[:])
	return v[0], err
}

// WriteInt32 stores one int32.
func (m *Module) WriteInt32(p *sim.Proc, addr Addr, v int32) {
	m.WriteInt32s(p, addr, []int32{v})
}

// WriteInt32E is WriteInt32 returning any failure.
func (m *Module) WriteInt32E(p *sim.Proc, addr Addr, v int32) error {
	return m.WriteInt32sE(p, addr, []int32{v})
}

// ReadInt32s loads consecutive int32 elements starting at addr.
func (m *Module) ReadInt32s(p *sim.Proc, addr Addr, dst []int32) {
	m.mustOK(m.ReadInt32sE(p, addr, dst))
}

// ReadInt32sE is ReadInt32s returning any failure.
func (m *Module) ReadInt32sE(p *sim.Proc, addr Addr, dst []int32) error {
	return m.readTyped(p, addr, conv.Int32, 4*len(dst), func(seg []byte, off int) {
		conv.GetInt32s(m.arch, seg, dst[off/4:])
	})
}

// WriteInt32s stores consecutive int32 elements starting at addr.
func (m *Module) WriteInt32s(p *sim.Proc, addr Addr, src []int32) {
	m.mustOK(m.WriteInt32sE(p, addr, src))
}

// WriteInt32sE is WriteInt32s returning any failure.
func (m *Module) WriteInt32sE(p *sim.Proc, addr Addr, src []int32) error {
	return m.writeTyped(p, addr, conv.Int32, 4*len(src), func(seg []byte, off int) {
		conv.PutInt32s(m.arch, seg, src[off/4:])
	})
}

// ReadInt16s loads consecutive int16 elements starting at addr.
func (m *Module) ReadInt16s(p *sim.Proc, addr Addr, dst []int16) {
	m.mustOK(m.ReadInt16sE(p, addr, dst))
}

// ReadInt16sE is ReadInt16s returning any failure.
func (m *Module) ReadInt16sE(p *sim.Proc, addr Addr, dst []int16) error {
	return m.readTyped(p, addr, conv.Int16, 2*len(dst), func(seg []byte, off int) {
		conv.GetInt16s(m.arch, seg, dst[off/2:])
	})
}

// WriteInt16s stores consecutive int16 elements starting at addr.
func (m *Module) WriteInt16s(p *sim.Proc, addr Addr, src []int16) {
	m.mustOK(m.WriteInt16sE(p, addr, src))
}

// WriteInt16sE is WriteInt16s returning any failure.
func (m *Module) WriteInt16sE(p *sim.Proc, addr Addr, src []int16) error {
	return m.writeTyped(p, addr, conv.Int16, 2*len(src), func(seg []byte, off int) {
		conv.PutInt16s(m.arch, seg, src[off/2:])
	})
}

// ReadFloat32s loads consecutive float32 elements starting at addr.
func (m *Module) ReadFloat32s(p *sim.Proc, addr Addr, dst []float32) {
	m.mustOK(m.ReadFloat32sE(p, addr, dst))
}

// ReadFloat32sE is ReadFloat32s returning any failure.
func (m *Module) ReadFloat32sE(p *sim.Proc, addr Addr, dst []float32) error {
	return m.readTyped(p, addr, conv.Float32, 4*len(dst), func(seg []byte, off int) {
		conv.GetFloat32s(m.arch, seg, dst[off/4:])
	})
}

// WriteFloat32s stores consecutive float32 elements starting at addr.
func (m *Module) WriteFloat32s(p *sim.Proc, addr Addr, src []float32) {
	m.mustOK(m.WriteFloat32sE(p, addr, src))
}

// WriteFloat32sE is WriteFloat32s returning any failure.
func (m *Module) WriteFloat32sE(p *sim.Proc, addr Addr, src []float32) error {
	return m.writeTyped(p, addr, conv.Float32, 4*len(src), func(seg []byte, off int) {
		conv.PutFloat32s(m.arch, seg, src[off/4:])
	})
}

// ReadFloat64s loads consecutive float64 elements starting at addr.
func (m *Module) ReadFloat64s(p *sim.Proc, addr Addr, dst []float64) {
	m.mustOK(m.ReadFloat64sE(p, addr, dst))
}

// ReadFloat64sE is ReadFloat64s returning any failure.
func (m *Module) ReadFloat64sE(p *sim.Proc, addr Addr, dst []float64) error {
	return m.readTyped(p, addr, conv.Float64, 8*len(dst), func(seg []byte, off int) {
		conv.GetFloat64s(m.arch, seg, dst[off/8:])
	})
}

// WriteFloat64s stores consecutive float64 elements starting at addr.
func (m *Module) WriteFloat64s(p *sim.Proc, addr Addr, src []float64) {
	m.mustOK(m.WriteFloat64sE(p, addr, src))
}

// WriteFloat64sE is WriteFloat64s returning any failure.
func (m *Module) WriteFloat64sE(p *sim.Proc, addr Addr, src []float64) error {
	return m.writeTyped(p, addr, conv.Float64, 8*len(src), func(seg []byte, off int) {
		conv.PutFloat64s(m.arch, seg, src[off/8:])
	})
}

// ReadPointer loads a DSM pointer, returning the space-relative Addr.
// The stored form is the host-virtual address (base + offset); a stored
// zero is the null pointer, reported by ok=false.
func (m *Module) ReadPointer(p *sim.Proc, addr Addr) (Addr, bool) {
	target, ok, err := m.ReadPointerE(p, addr)
	m.mustOK(err)
	return target, ok
}

// ReadPointerE is ReadPointer returning any failure.
func (m *Module) ReadPointerE(p *sim.Proc, addr Addr) (Addr, bool, error) {
	var raw uint32
	err := m.readTyped(p, addr, conv.Pointer, 4, func(seg []byte, _ int) {
		raw = conv.GetPointer(m.arch, seg)
	})
	if err != nil || raw == 0 {
		return 0, false, err
	}
	return Addr(raw - m.Base()), true, nil
}

// WritePointer stores a DSM pointer to target; ok=false stores null.
func (m *Module) WritePointer(p *sim.Proc, addr Addr, target Addr, ok bool) {
	m.mustOK(m.WritePointerE(p, addr, target, ok))
}

// WritePointerE is WritePointer returning any failure.
func (m *Module) WritePointerE(p *sim.Proc, addr Addr, target Addr, ok bool) error {
	raw := uint32(0)
	if ok {
		raw = m.Base() + uint32(target)
	}
	return m.writeTyped(p, addr, conv.Pointer, 4, func(seg []byte, _ int) {
		conv.PutPointer(m.arch, seg, raw)
	})
}

// AtomicSwapInt32 atomically exchanges the int32 at addr with v and
// returns the previous value. Atomicity holds because the host keeps
// write ownership from the access check to the store without yielding.
//
// This is the §2.2 anti-pattern made available on purpose: building
// locks from atomic operations on shared memory locations "would lead
// to repeated movement of (large) DSM pages between the hosts" — which
// is exactly why Mermaid provides the separate distributed
// synchronization facility. The spinlock-vs-semaphore experiment uses
// this to reproduce that comparison.
func (m *Module) AtomicSwapInt32(p *sim.Proc, addr Addr, v int32) int32 {
	old, err := m.AtomicSwapInt32E(p, addr, v)
	m.mustOK(err)
	return old
}

// AtomicSwapInt32E is AtomicSwapInt32 returning any failure, including
// ErrNoAtomics under a policy that defines no atomic operation.
func (m *Module) AtomicSwapInt32E(p *sim.Proc, addr Addr, v int32) (int32, error) {
	if err := m.checkTyped(addr, conv.Int32, 4); err != nil {
		return 0, err
	}
	return m.engine.atomicSwap(p, addr, v)
}

// ReadStruct copies the raw native bytes of count elements of a
// user-registered compound type into buf (len must be count×size).
// Field decoding is up to the caller via the conv helpers.
func (m *Module) ReadStruct(p *sim.Proc, addr Addr, id conv.TypeID, buf []byte) {
	m.mustOK(m.ReadStructE(p, addr, id, buf))
}

// ReadStructE is ReadStruct returning any failure.
func (m *Module) ReadStructE(p *sim.Proc, addr Addr, id conv.TypeID, buf []byte) error {
	return m.readTyped(p, addr, id, len(buf), func(seg []byte, off int) {
		copy(buf[off:], seg)
	})
}

// WriteStruct stores raw native bytes of a user-registered compound type.
func (m *Module) WriteStruct(p *sim.Proc, addr Addr, id conv.TypeID, data []byte) {
	m.mustOK(m.WriteStructE(p, addr, id, data))
}

// WriteStructE is WriteStruct returning any failure.
func (m *Module) WriteStructE(p *sim.Proc, addr Addr, id conv.TypeID, data []byte) error {
	return m.writeTyped(p, addr, id, len(data), func(seg []byte, off int) {
		copy(seg, data[off:])
	})
}
