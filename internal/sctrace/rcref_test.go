package sctrace

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// rcReference judges a release-consistency trace the explicit way, as
// the reference CheckRC is held to. The operations are the nodes of a
// happens-before graph, in record order, with two kinds of edge:
//   - program order: each operation of a host follows the host's
//     previous one (a host's threads share its copy of memory);
//   - release → acquire: an Acquire on host b follows every Release of
//     another host a recorded before it whose interval its timestamp
//     counts (1 ≤ vtR[a] ≤ vtQ[a]).
//
// A write happens-before a read when the read is reachable from it. A
// byte a read returned is admissible when it is the value of a write of
// that byte recorded before the read that does not happen-before it
// (a race), or of one that does and from which no other such write is
// reachable (the newest), or zero when no write of the byte
// happens-before the read. The trace is accepted when every byte of
// every read is admissible; the graph has no notion of malformed
// timestamps. At most 64 operations.
func rcReference(ops []Op) bool {
	if len(ops) > 64 {
		panic("rcReference: more than 64 operations")
	}
	anc := make([]uint64, len(ops)) // anc[i]: the operations i is reachable from
	last := map[int]int{}
	for i := range ops {
		op := &ops[i]
		if p, ok := last[op.Host]; ok {
			anc[i] |= anc[p] | 1<<p
		}
		last[op.Host] = i
		if op.Kind != Acquire {
			continue
		}
		vq := DecodeVT(op.Data)
		for j := 0; j < i; j++ {
			r := &ops[j]
			if r.Kind != Release || r.Host == op.Host {
				continue
			}
			if own := vtAt(DecodeVT(r.Data), r.Host); own >= 1 && own <= vtAt(vq, r.Host) {
				anc[i] |= anc[j] | 1<<j
			}
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.Kind != Read {
			continue
		}
		for k, got := range op.Data {
			if !rcRefByteOK(ops[:i], anc, anc[i], op.Addr+uint32(k), got) {
				return false
			}
		}
	}
	return true
}

// rcRefByteOK is the graph's admissibility rule for one byte at addr
// that a read reachable from the operations in before returned.
func rcRefByteOK(prior []Op, anc []uint64, before uint64, addr uint32, got byte) bool {
	var hb uint64 // the writes of addr that happen-before the read
	val := map[int]byte{}
	for j := range prior {
		w := &prior[j]
		if w.Kind != Write || addr < w.Addr || addr >= w.Addr+uint32(len(w.Data)) {
			continue
		}
		v := w.Data[addr-w.Addr]
		val[j] = v
		if before&(1<<j) == 0 {
			if v == got {
				return true // a race: either outcome is legal
			}
			continue
		}
		hb |= 1 << j
	}
	if hb == 0 {
		return got == 0
	}
	for rest := hb; rest != 0; rest &= rest - 1 {
		j := bits.TrailingZeros64(rest)
		if val[j] != got {
			continue
		}
		newest := true
		for other := hb &^ (1 << j); other != 0; other &= other - 1 {
			if k := bits.TrailingZeros64(other); anc[k]&(1<<j) != 0 {
				newest = false
				break
			}
		}
		if newest {
			return true
		}
	}
	return false
}

// randomRCHistory draws a small release-consistency history from seed:
// two or three hosts, one stream each, run in a random interleaving of
// up to six operations per host on bytes 0–2. Hosts acquire and release
// one of two locks, and the timestamps are the protocol's: a release
// advances its host's own component and folds its timestamp into the
// lock's, an acquire takes the component-wise maximum with the lock's.
// A read returns zero or the value of any write of its bytes recorded
// before it, at random, so both legal and illegal reads are common.
// In a sixth of the histories one sync operation's timestamp is then
// corrupted by one in one component (malformed reports whether it was).
func randomRCHistory(seed int64) (ops []Op, malformed bool) {
	rng := rand.New(rand.NewSource(seed))
	hosts := 2 + rng.Intn(2)
	left := make([]int, hosts)
	for h := range left {
		left[h] = 1 + rng.Intn(6)
	}
	vt := make([][]uint32, hosts)
	for h := range vt {
		vt[h] = make([]uint32, hosts)
	}
	var locks [2][]uint32
	merge := func(dst, src []uint32) {
		for i := range src {
			dst[i] = max(dst[i], src[i])
		}
	}
	for {
		var ready []int
		for h, n := range left {
			if n > 0 {
				ready = append(ready, h)
			}
		}
		if len(ready) == 0 {
			break
		}
		h := ready[rng.Intn(len(ready))]
		left[h]--
		op := Op{Host: h, Proc: "p", Seq: uint64(len(ops) + 1), Start: int64(len(ops)), End: int64(len(ops))}
		switch rng.Intn(4) {
		case 0:
			op.Kind = Acquire
			l := &locks[rng.Intn(2)]
			if *l != nil {
				merge(vt[h], *l)
			}
			op.Data = EncodeVT(vt[h])
		case 1:
			op.Kind = Release
			vt[h][h]++
			l := &locks[rng.Intn(2)]
			if *l == nil {
				*l = make([]uint32, hosts)
			}
			merge(*l, vt[h])
			op.Data = EncodeVT(vt[h])
		case 2:
			op.Kind = Write
			op.Data = make([]byte, 1+rng.Intn(2))
			op.Addr = uint32(rng.Intn(4 - len(op.Data)))
			for k := range op.Data {
				op.Data[k] = byte(1 + rng.Intn(3))
			}
		default:
			op.Kind = Read
			op.Data = make([]byte, 1+rng.Intn(2))
			op.Addr = uint32(rng.Intn(4 - len(op.Data)))
			for k := range op.Data {
				a := op.Addr + uint32(k)
				seen := []byte{0}
				for _, w := range ops {
					if w.Kind == Write && a >= w.Addr && a < w.Addr+uint32(len(w.Data)) {
						seen = append(seen, w.Data[a-w.Addr])
					}
				}
				op.Data[k] = seen[rng.Intn(len(seen))]
			}
		}
		ops = append(ops, op)
	}
	if rng.Intn(6) == 0 {
		var syncs []int
		for i, op := range ops {
			if op.Kind == Acquire || op.Kind == Release {
				syncs = append(syncs, i)
			}
		}
		if len(syncs) > 0 {
			op := &ops[syncs[rng.Intn(len(syncs))]]
			v := DecodeVT(op.Data)
			c := rng.Intn(len(v))
			if v[c] > 0 && rng.Intn(2) == 0 {
				v[c]--
			} else {
				v[c]++
			}
			op.Data = EncodeVT(v)
			malformed = true
		}
	}
	return ops, malformed
}

// checkRCAgainstReference fails t when CheckRC accepts the history from
// seed and the reference rejects it, or when the two disagree at all on
// a history with the protocol's timestamps. It returns whether CheckRC
// rejects a malformed history the reference accepts.
func checkRCAgainstReference(t *testing.T, seed int64) (stricter bool) {
	ops, malformed := randomRCHistory(seed)
	ref := rcReference(ops)
	ok := len(CheckRC(ops)) == 0
	switch {
	case ok && !ref:
		t.Fatalf("seed %d: CheckRC accepts a history the reference rejects:\n%s", seed, dumpRC(ops))
	case !ok && ref && !malformed:
		t.Fatalf("seed %d: CheckRC rejects a well-formed history the reference accepts: %v\n%s", seed, CheckRC(ops), dumpRC(ops))
	}
	return !ok && ref
}

func dumpRC(ops []Op) string {
	out := ""
	for _, op := range ops {
		if op.Kind == Acquire || op.Kind == Release {
			out += fmt.Sprintf("%s vt=%v\n", op, DecodeVT(op.Data))
		} else {
			out += fmt.Sprintf("%s data=%v\n", op, op.Data)
		}
	}
	return out
}

// TestCheckRCSoundAgainstReference runs checkRCAgainstReference over a
// fixed sweep of seeds and logs how often CheckRC rejects, for its
// malformed timestamps, a history the graph accepts.
func TestCheckRCSoundAgainstReference(t *testing.T) {
	const n = 20000
	stricter, rejected := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		if checkRCAgainstReference(t, seed) {
			stricter++
		}
		if ops, _ := randomRCHistory(seed); !rcReference(ops) {
			rejected++
		}
	}
	t.Logf("the reference rejects %d of %d histories; CheckRC rejects %d more, each for a malformed timestamp", rejected, n, stricter)
}

// FuzzCheckRCSoundAgainstReference is the same property under the
// fuzzer: go test -fuzz FuzzCheckRCSoundAgainstReference ./internal/sctrace.
func FuzzCheckRCSoundAgainstReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkRCAgainstReference(t, seed) })
}

// TestCheckRCKnownDisagreements lists the shapes on which CheckRC
// rejects a history the graph reference accepts, each with its reason:
// all four are malformed timestamps, which the graph does not read as
// anything but edges. On the protocol's timestamps the two agree, and
// CheckRC never accepts what the graph rejects
// (TestCheckRCSoundAgainstReference).
func TestCheckRCKnownDisagreements(t *testing.T) {
	vt := func(kind OpKind, host int, seq uint64, v ...uint32) Op { return rcOp(kind, host, seq, 0, EncodeVT(v)) }
	for _, c := range []struct {
		name, reason, msg string
		trace             []Op
	}{
		{
			name:   "regressed timestamp",
			reason: "a host's knowledge only grows; the graph has no timestamps to shrink, CheckRC reads later operations' order from them",
			msg:    "regressed",
			trace:  []Op{vt(Release, 0, 1, 1, 0), vt(Acquire, 0, 2, 0, 0)},
		},
		{
			name:   "release that closes no interval",
			reason: "two releases with one own count make the count name no single interval, so a timestamp cannot say which writes it follows",
			msg:    "did not advance",
			trace:  []Op{vt(Release, 0, 1, 1, 0), vt(Release, 0, 2, 1, 0)},
		},
		{
			name: "acquire that drops part of a release it counts",
			reason: "host 2 counts host 1's release, which carried host 0's interval, but not host 0's interval: " +
				"the graph reaches host 0's writes through host 1, CheckRC's timestamp test would not",
			msg: "does not cover",
			trace: []Op{
				vt(Release, 0, 1, 1, 0, 0), vt(Acquire, 1, 2, 1, 0, 0), vt(Release, 1, 3, 1, 1, 0),
				vt(Acquire, 2, 4, 0, 1, 0),
			},
		},
		{
			name: "release that claims another host's interval",
			reason: "host 0's timestamp counts host 1's first interval, which no acquire brought it: " +
				"CheckRC orders host 1's write before host 0's read and refuses the zero, the graph has no such edge",
			msg: "neither happens-before-maximal nor concurrent",
			trace: []Op{
				rcOp(Write, 1, 1, 0, []byte{5}), vt(Release, 0, 2, 1, 1), rcOp(Read, 0, 3, 0, []byte{0}),
			},
		},
	} {
		if !rcReference(c.trace) {
			t.Errorf("%s: the reference rejects it: not a disagreement", c.name)
		}
		v := CheckRC(c.trace)
		if len(v) != 1 || !strings.Contains(v[0].Msg, c.msg) {
			t.Errorf("%s: CheckRC reports %v, want one violation saying %q (%s)", c.name, v, c.msg, c.reason)
		}
	}
}

// TestCheckRCRefusesAnAcquireThatDropsWhatItCounts pins the one
// soundness case the random sweep does not reach: host 2's acquire
// counts host 1's release but not host 0's interval that release
// carried, and host 2 then reads the zero host 0 overwrote. The graph
// reaches host 0's write through host 1 and rejects the read; the
// timestamps alone call the write concurrent, so without the cover
// rule CheckRC would accept.
func TestCheckRCRefusesAnAcquireThatDropsWhatItCounts(t *testing.T) {
	vt := func(kind OpKind, host int, seq uint64, v ...uint32) Op { return rcOp(kind, host, seq, 0, EncodeVT(v)) }
	trace := []Op{
		rcOp(Write, 0, 1, 0, []byte{5}), vt(Release, 0, 2, 1, 0, 0),
		vt(Acquire, 1, 3, 1, 0, 0), vt(Release, 1, 4, 1, 1, 0),
		vt(Acquire, 2, 5, 0, 1, 0), rcOp(Read, 2, 6, 0, []byte{0}),
	}
	if rcReference(trace) {
		t.Fatal("the reference accepts the stale read")
	}
	if v := CheckRC(trace); len(v) != 1 || !strings.Contains(v[0].Msg, "does not cover") {
		t.Fatalf("CheckRC reports %v, want the acquire that does not cover host 1's release", v)
	}
}
