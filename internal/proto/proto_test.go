package proto

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		Kind:    KindPageReply,
		ReqID:   0xdeadbeef,
		From:    3,
		Page:    17,
		SrcArch: 2,
		Args:    []uint32{1, 0xffffffff, 42},
		Data:    []byte{9, 8, 7, 6, 5},
	}
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != m.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), m.EncodedSize())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.ReqID != m.ReqID || got.From != m.From ||
		got.Page != m.Page || got.SrcArch != m.SrcArch {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	if len(got.Args) != 3 || got.Args[0] != 1 || got.Args[1] != 0xffffffff || got.Args[2] != 42 {
		t.Fatalf("args %v", got.Args)
	}
	if !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("data %v", got.Data)
	}
}

func TestEncodeDecodeMinimalMessage(t *testing.T) {
	m := &Message{Kind: KindEcho}
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindEcho || len(got.Args) != 0 || len(got.Data) != 0 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestTooManyArgsRejected(t *testing.T) {
	m := &Message{Kind: KindEcho, Args: make([]uint32, MaxArgs+1)}
	if _, err := m.Encode(); err == nil {
		t.Fatal("encoded message with too many args")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("decoded nil buffer")
	}
	if _, err := Decode(make([]byte, 5)); err == nil {
		t.Error("decoded short buffer")
	}
	m := &Message{Kind: KindEcho, Data: []byte{1, 2, 3}}
	buf, _ := m.Encode()
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("decoded truncated buffer")
	}
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Error("decoded over-long buffer")
	}
}

func TestArgHelperReturnsZeroWhenAbsent(t *testing.T) {
	m := &Message{Args: []uint32{5}}
	if m.Arg(0) != 5 || m.Arg(1) != 0 || m.Arg(99) != 0 {
		t.Fatal("Arg helper wrong")
	}
}

// TestIsReplyClassification walks the whole kinds table: the replies
// are exactly the kinds listed here, so a reply row mistyped as a
// request (its messages would be dropped for want of a handler) or the
// reverse fails.
func TestIsReplyClassification(t *testing.T) {
	replies := map[Kind]bool{
		KindPageReply: true, KindServeAck: true, KindPageDeliverAck: true, KindInvalidateAck: true,
		KindOwnerUpdateAck: true, KindThreadCreated: true, KindThreadExitedAck: true,
		KindThreadMigrateAck: true, KindSemReply: true, KindEventReply: true, KindBarrierReply: true,
		KindAllocReply: true, KindPageMetaAck: true, KindUpdateWriteAck: true, KindApplyUpdateAck: true,
		KindRemoteReadReply: true, KindRemoteWriteAck: true, KindEchoReply: true,
		KindRecoverPageReply: true, KindDynForwardAck: true, KindDynRecoverReply: true,
		KindDynConfirmAck: true, KindQuorumReadReply: true, KindQuorumWriteAck: true,
		KindRCDiffAck: true, KindRCPullReply: true, KindRCFetchReply: true,
	}
	for k := KindInvalid; k < NumKinds; k++ {
		if k.IsReply() != replies[k] {
			t.Errorf("%v: IsReply = %v, want %v", k, k.IsReply(), replies[k])
		}
	}
	if NumKinds.IsReply() || Kind(255).IsReply() {
		t.Error("a value past the table classified as a reply")
	}
}

// TestKindStringsAreUnique also requires a name for every constant: a
// kind added without its row in the kinds table has an empty one.
func TestKindStringsAreUnique(t *testing.T) {
	seen := make(map[string]Kind)
	for k := KindInvalid; k < NumKinds; k++ {
		s := k.String()
		if s == "" {
			t.Fatalf("kind %d has no row in the kinds table", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
	if got := NumKinds.String(); got != fmt.Sprintf("Kind(%d)", uint8(NumKinds)) {
		t.Errorf("a value past the table is named %q", got)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(kind uint8, reqID, from, page uint32, srcArch uint8, args []uint32, data []byte) bool {
		if len(args) > MaxArgs {
			args = args[:MaxArgs]
		}
		m := &Message{
			Kind: Kind(kind), ReqID: reqID, From: from, Page: page,
			SrcArch: srcArch, Args: args, Data: data,
		}
		buf, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.Kind != m.Kind || got.ReqID != m.ReqID || got.From != m.From ||
			got.Page != m.Page || got.SrcArch != m.SrcArch {
			return false
		}
		if len(got.Args) != len(m.Args) {
			return false
		}
		for i := range m.Args {
			if got.Args[i] != m.Args[i] {
				return false
			}
		}
		return bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	// The decoder faces whatever arrives off the wire; arbitrary bytes
	// must produce an error or a message, never a panic.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on %x: %v", buf, r)
				}
			}()
			_, _ = Decode(buf)
		}()
	}
}

func TestDecodeTruncationsOfValidMessage(t *testing.T) {
	m := &Message{Kind: KindPageDeliver, ReqID: 7, Args: []uint32{1, 2, 3}, Data: make([]byte, 100)}
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
}
