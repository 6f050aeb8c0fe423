package dsm

// Alloc guards for the steady-state page-transfer data path. A full
// simulated fault necessarily allocates in the simulation machinery
// (process spawns, schedule labels), so the zero-allocation contract is
// asserted on the composed data path itself — the exact sequence of
// operations a fault → deliver → install transfer performs on bytes:
// pooled serve staging, append-encode, fragmentation, reassembly into a
// pooled wire buffer, borrow-mode decode, bulk conversion, and the
// install copy, with every buffer returned to the pool. If any step
// regresses to allocating, this test fails loudly.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/conv"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/sim"
)

func TestSteadyStateTransferZeroAllocs(t *testing.T) {
	reg := conv.NewRegistry()
	params := model.Default()
	mtu := params.MTUPayload

	const pageBytes = 1024 // a Firefly page of doubles
	srcPage := make([]byte, pageBytes)
	for i := range srcPage {
		srcPage[i] = byte(i * 7)
	}
	dstPage := make([]byte, pageBytes)

	var sendMsg, rxMsg proto.Message
	args := [...]uint32{1, 42}

	transfer := func() {
		// Owner side: stage the resident copy (serveCopy) and encode the
		// PageDeliver into a pooled buffer (remoteop send).
		data := bufpool.Get(pageBytes)
		copy(data, srcPage)
		sendMsg = proto.Message{
			Kind:    proto.KindPageDeliver,
			Page:    7,
			SrcArch: uint8(arch.Sun),
			Args:    args[:],
			Data:    data,
		}
		enc, err := sendMsg.AppendEncode(bufpool.Get(sendMsg.EncodedSize())[:0])
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(data) // staging released once the encode holds the bytes

		// Receiver side: each fragment's chunk is copied into a pooled
		// reassembly buffer at its offset (remoteop reassemble).
		total := params.Fragments(len(enc))
		wire := bufpool.Get(total * mtu)
		for idx := 0; idx < total; idx++ {
			lo := idx * mtu
			hi := min(lo+mtu, len(enc))
			copy(wire[lo:], enc[lo:hi])
		}
		wire = wire[:len(enc)]
		bufpool.Put(enc) // last fragment consumed: encode buffer released

		// Borrow-mode decode, bulk conversion in place, install copy.
		if err := proto.DecodeBorrowInto(&rxMsg, wire); err != nil {
			t.Fatal(err)
		}
		rxMsg.SetWire(wire)
		if _, err := reg.ConvertRegion(conv.Float64, rxMsg.Data, arch.SunArch, arch.FireflyArch, 0); err != nil {
			t.Fatal(err)
		}
		copy(dstPage, rxMsg.Data)
		bufpool.Put(rxMsg.TakeWire())
	}

	transfer() // warm the pools
	if avg := testing.AllocsPerRun(200, transfer); avg != 0 {
		t.Fatalf("steady-state transfer data path allocates %.1f times per run, want 0", avg)
	}
}

// TestSendArgsInlineAllocFree pins that the scalar argument slices the
// protocol builds fit MaxArgs, so borrow-mode decoding keeps them in the
// message's inline store.
func TestSendArgsInlineAllocFree(t *testing.T) {
	m := proto.Message{Args: make([]uint32, proto.MaxArgs)}
	enc, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rx proto.Message
	if err := proto.DecodeBorrowInto(&rx, enc); err != nil {
		t.Fatal(err)
	}
	if len(rx.Args) != proto.MaxArgs {
		t.Fatalf("decoded %d args, want %d", len(rx.Args), proto.MaxArgs)
	}
}

// TestResidentSliceAccessAllocatesPerCallOnly guards the access hit
// path: reading or writing 1 k resident int32s allocates what a
// one-element access does — the span closure handed through the engine
// interface — and nothing per element, per span or per page checked:
// the bulk conv kernels decode straight between the page and the
// caller's slice.
func TestResidentSliceAccessAllocatesPerCallOnly(t *testing.T) {
	r := newRig(t, []arch.Kind{arch.Sun})
	r.run("main", func(p *sim.Proc) {
		m := r.mods[0]
		addr, err := m.Alloc(p, conv.Int32, 1024)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]int32, 1024)
		m.WriteInt32s(p, addr, buf) // resident and writable from here on
		for _, n := range []int{1, 1024} {
			if avg := testing.AllocsPerRun(200, func() { m.ReadInt32s(p, addr, buf[:n]) }); avg > 1 {
				t.Errorf("resident ReadInt32s of %d elements allocates %.1f times, want ≤ 1", n, avg)
			}
			if avg := testing.AllocsPerRun(200, func() { m.WriteInt32s(p, addr, buf[:n]) }); avg > 1 {
				t.Errorf("resident WriteInt32s of %d elements allocates %.1f times, want ≤ 1", n, avg)
			}
		}
	})
}
