package conv

// Typed page diffs (the release-consistency write-update path). A diff
// is the element-aligned delta between a page's twin (its contents when
// the current interval's first write arrived) and the page now: runs of
// consecutive changed elements plus their new bytes, packed. Because a
// Mermaid page holds data of one type only and a diff's payload is whole
// elements of that type, a diff converts between architectures exactly
// like a page does — one ConvertRegion call over the packed payload,
// reusing the compiled per-type op-streams — and applying a converted
// diff is bit-identical to converting the whole written page (the
// differential fuzz in diff_test.go proves it, NaNs, denormals and
// pointer rebasing included).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/arch"
)

// DiffRun is one run of consecutive changed elements.
type DiffRun struct {
	// Elem is the index of the run's first element within the region.
	Elem uint32
	// Count is the number of consecutive changed elements.
	Count uint32
}

// Diff is the element-aligned delta between two images of a region
// holding elements of a single registered type.
type Diff struct {
	// Type is the region's element type.
	Type TypeID
	// Runs lists the changed element runs in ascending order.
	Runs []DiffRun
	// Data holds the new bytes of every changed element, packed in run
	// order (len = total changed elements × element size).
	Data []byte
}

// Elements returns the total number of changed elements.
func (d *Diff) Elements() int {
	n := 0
	for _, r := range d.Runs {
		n += int(r.Count)
	}
	return n
}

// Empty reports whether the diff changes nothing.
func (d *Diff) Empty() bool { return len(d.Runs) == 0 }

// BuildDiff computes the element-aligned delta from old to new, whose
// lengths must be equal and a multiple of the type's element size. Only
// whole elements are compared: a single changed byte marks its whole
// element changed, which is what keeps the payload convertible.
//
// Equal bytes are skipped a word at a time up to the first difference;
// the element holding it opens a run, which extends element by element.
// The runs gather in a stack buffer and the run list and payload are
// each allocated once, at their final size.
func (r *Registry) BuildDiff(id TypeID, old, new []byte) (Diff, error) {
	t, ok := r.Get(id)
	if !ok {
		return Diff{}, fmt.Errorf("conv: type %d not registered", id)
	}
	if len(old) != len(new) {
		return Diff{}, fmt.Errorf("conv: diff images differ in length: %d vs %d", len(old), len(new))
	}
	if len(old)%t.Size != 0 {
		return Diff{}, fmt.Errorf("conv: region size %d not a multiple of %s element size %d", len(old), t.Name, t.Size)
	}
	d := Diff{Type: id}
	sz := t.Size
	var stack [256]DiffRun
	runs := stack[:0]
	elems := 0
	for i := firstDiff(old, new, 0); i < len(old); i = firstDiff(old, new, i) {
		start := i / sz
		end := start + 1
		for off := end * sz; off < len(old) && !bytesEqual(old[off:off+sz], new[off:off+sz]); off += sz {
			end++
		}
		runs = append(runs, DiffRun{Elem: uint32(start), Count: uint32(end - start)})
		elems += end - start
		i = end * sz
	}
	if len(runs) == 0 {
		return d, nil
	}
	d.Runs = make([]DiffRun, len(runs))
	copy(d.Runs, runs)
	d.Data = make([]byte, 0, elems*sz)
	for _, run := range runs {
		d.Data = append(d.Data, new[int(run.Elem)*sz:int(run.Elem+run.Count)*sz]...)
	}
	return d, nil
}

// firstDiff returns the index of the first byte at or after i where a
// and b (of equal length) differ, or len(a) if none does. Equal bytes
// are skipped eight at a time.
func firstDiff(a, b []byte, i int) int {
	for ; i+8 <= len(a); i += 8 {
		if binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:]) {
			break
		}
	}
	for ; i < len(a) && a[i] == b[i]; i++ {
	}
	return i
}

// bytesEqual is bytes.Equal without the import, kept inlineable on the
// element-compare hot loop.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Apply copies the diff's elements into dst, which must hold the whole
// region in the same representation as the diff's payload.
func (r *Registry) Apply(d *Diff, dst []byte) error {
	t, ok := r.Get(d.Type)
	if !ok {
		return fmt.Errorf("conv: type %d not registered", d.Type)
	}
	sz := t.Size
	src := 0
	for _, run := range d.Runs {
		lo := int(run.Elem) * sz
		n := int(run.Count) * sz
		if lo+n > len(dst) || src+n > len(d.Data) {
			return fmt.Errorf("conv: diff run [%d,+%d) outside region of %d bytes", run.Elem, run.Count, len(dst))
		}
		copy(dst[lo:lo+n], d.Data[src:src+n])
		src += n
	}
	if src != len(d.Data) {
		return fmt.Errorf("conv: diff payload %d bytes, runs cover %d", len(d.Data), src)
	}
	return nil
}

// ConvertDiff converts the diff's payload in place between architectures,
// exactly as ConvertRegion converts a page: the payload is packed whole
// elements of the diff's single type. Run headers are representation-free
// element indices and need no conversion.
func (r *Registry) ConvertDiff(d *Diff, from, to arch.Arch, ptrOff int32) (Report, error) {
	return r.ConvertRegion(d.Type, d.Data, from, to, ptrOff)
}

// diffHdrSize is the encoded size of the run-count header and of each
// run entry (big-endian u32s — canonical, so headers cross architectures
// untouched; only the payload is representation-dependent).
const diffHdrSize = 4

// EncodedSize returns the wire size of the diff.
func (d *Diff) EncodedSize() int {
	return diffHdrSize + 8*len(d.Runs) + len(d.Data)
}

// EncodeTo writes the wire form of the diff into buf, which must be at
// least EncodedSize bytes, and returns the bytes written. The layout is
// [u32 nruns] [u32 elem, u32 count]×nruns [payload]; header integers are
// big-endian regardless of host, the payload stays in the sender's
// representation (the receiver converts it via ConvertDiff).
func (d *Diff) EncodeTo(buf []byte) int {
	binary.BigEndian.PutUint32(buf, uint32(len(d.Runs)))
	off := diffHdrSize
	for _, run := range d.Runs {
		binary.BigEndian.PutUint32(buf[off:], run.Elem)
		binary.BigEndian.PutUint32(buf[off+4:], run.Count)
		off += 8
	}
	copy(buf[off:], d.Data)
	return off + len(d.Data)
}

// DecodeDiff parses a wire-form diff for a region of elements of type
// id. The returned diff's Runs and Data are fresh copies, not buf.
func DecodeDiff(id TypeID, elemSize int, buf []byte) (Diff, error) {
	d, err := ViewDiff(id, elemSize, buf)
	if err != nil {
		return Diff{}, err
	}
	d.Data = append([]byte(nil), d.Data...)
	return d, nil
}

// ViewDiff is DecodeDiff without the payload copy: the returned diff's
// Data aliases buf, so converting and applying it work in place in the
// wire buffer.
func ViewDiff(id TypeID, elemSize int, buf []byte) (Diff, error) {
	if len(buf) < diffHdrSize {
		return Diff{}, fmt.Errorf("conv: diff of %d bytes has no header", len(buf))
	}
	nruns := int(binary.BigEndian.Uint32(buf))
	need := diffHdrSize + 8*nruns
	if len(buf) < need {
		return Diff{}, fmt.Errorf("conv: diff header claims %d runs, only %d bytes follow", nruns, len(buf)-diffHdrSize)
	}
	d := Diff{Type: id, Runs: make([]DiffRun, nruns)}
	off := diffHdrSize
	elems := 0
	for i := range d.Runs {
		d.Runs[i].Elem = binary.BigEndian.Uint32(buf[off:])
		d.Runs[i].Count = binary.BigEndian.Uint32(buf[off+4:])
		elems += int(d.Runs[i].Count)
		off += 8
	}
	if len(buf)-off != elems*elemSize {
		return Diff{}, fmt.Errorf("conv: diff payload %d bytes, runs claim %d elements of %d bytes",
			len(buf)-off, elems, elemSize)
	}
	d.Data = buf[off:]
	return d, nil
}
