package dsm

// Sequential-consistency trace recording. When Config.SCRecorder is
// set, every typed access that flows through readRegion/writeRegion is
// recorded per page span, with the bytes canonicalized to the Sun
// representation so traces from heterogeneous hosts compare directly
// (a Firefly's little-endian VAX floats and a Sun's big-endian IEEE
// floats of the same value record identically). The offline checker in
// internal/sctrace then validates the run for linearizability per
// access unit, which implies sequential consistency.

import (
	"repro/internal/arch"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// traceClock is the clock recorded accesses are stamped with: the
// kernel's dispatch ordinal (the number of events dispatched so far),
// the order the execution really ran in. It never runs backwards and
// advances with every event, so it separates what virtual time lumps
// into one instant wherever costs are zero (mc), where the oracle would
// otherwise judge program order alone.
func (m *Module) traceClock() int64 { return int64(m.k.Counts().Events) }

// recordSC appends one span access to the attached trace recorder.
// start is the traceClock reading when the enclosing access began
// (before any fault it triggered); the end is the current reading.
func (m *Module) recordSC(p *sim.Proc, kind sctrace.OpKind, start int64, addr Addr, data []byte) {
	m.completeSC(m.invokeSC(p, kind, start, addr, data))
}

// invokeSC records a span access whose value is fixed but which has not
// completed: it stays pending in the trace — an operation that may take
// effect at any later instant, or never — until completeSC. A quorum
// write is recorded this way once phase 1 has fixed its value, so a
// writer that crashes while its value spreads leaves that value
// admissible.
func (m *Module) invokeSC(p *sim.Proc, kind sctrace.OpKind, start int64, addr Addr, data []byte) sctrace.Handle {
	rec := m.cfg.SCRecorder
	if rec == nil {
		return 0
	}
	return rec.Invoke(kind, int(m.id), p.Name(), start, uint32(addr), m.canonicalBytes(addr, data))
}

// completeSC stamps an invoked access's completion at the current
// traceClock reading.
func (m *Module) completeSC(h sctrace.Handle) {
	if rec := m.cfg.SCRecorder; rec != nil {
		rec.Complete(h, m.traceClock())
	}
}

// canonicalBytes converts one page span's native bytes to the canonical
// (Sun) representation. Pointers are canonicalized too: rebasing by the
// base-address difference maps every stored pointer to the Sun-virtual
// form regardless of which host recorded it. Bytes that cannot be
// converted (no metadata, or a partial element) are recorded raw.
func (m *Module) canonicalBytes(addr Addr, data []byte) []byte {
	buf := make([]byte, len(data)) // vet:ignore hot-alloc — retained by the SC trace recorder
	copy(buf, data)
	if m.arch.Compatible(arch.SunArch) {
		return buf
	}
	mt, ok := m.meta[m.PageOf(addr)]
	if !ok {
		return buf
	}
	typ, ok := m.cfg.Registry.Get(mt.typeID)
	if !ok || typ.Size <= 0 {
		return buf
	}
	n := len(buf) / typ.Size
	if n == 0 {
		return buf
	}
	ptrOff := int32(m.base(arch.Sun)) - int32(m.base(m.arch.Kind))
	if _, err := m.cfg.Registry.ConvertRegion(mt.typeID, buf[:n*typ.Size], m.arch, arch.SunArch, ptrOff); err != nil {
		// Unconvertible data is recorded raw; a resulting cross-host
		// mismatch is exactly what the checker should surface.
		copy(buf, data)
	}
	return buf
}
