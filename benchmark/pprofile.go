package main

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes, and the classifier that buckets CPU samples by
// the package of their leaf frame. Only the fields the bucketing needs
// are decoded (samples, locations, functions, the string table), so the
// benchmark needs no module beyond the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one profile sample: function names leaf first, and the
// sample's weight (CPU nanoseconds when the profile has them, else the
// sample count).
type cpuSample struct {
	stack  []string
	weight int64
}

var errTruncated = errors.New("profile: truncated message")

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	val   uint64 // wire types 0, 1, 5
	bytes []byte // wire type 2
}

// nextField decodes the field at the head of b and returns the rest.
func nextField(b []byte) (protoField, []byte, error) {
	key, b, err := varint(b)
	if err != nil {
		return protoField{}, nil, err
	}
	f := protoField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, b, err = varint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errTruncated
		}
		for i := 7; i >= 0; i-- {
			f.val = f.val<<8 | uint64(b[i])
		}
		b = b[8:]
	case 2:
		var n uint64
		n, b, err = varint(b)
		if err == nil {
			if uint64(len(b)) < n {
				return f, nil, errTruncated
			}
			f.bytes, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errTruncated
		}
		for i := 3; i >= 0; i-- {
			f.val = f.val<<8 | uint64(b[i])
		}
		b = b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", f.wire)
	}
	return f, b, err
}

func varint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// repeatedVarints decodes a repeated integer field that may arrive
// packed (wire type 2) or one value per field (wire type 0).
func repeatedVarints(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := varint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a pprof CPU profile into weighted stacks.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
		nTypes    int
	)
	for b := raw; len(b) > 0; {
		var f protoField
		if f, b, err = nextField(b); err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			for m := f.bytes; len(m) > 0; {
				var sf protoField
				if sf, m, err = nextField(m); err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarints(sf, s.locs)
				case 2:
					s.vals, err = repeatedVarints(sf, s.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for m := f.bytes; len(m) > 0; {
				var lf protoField
				if lf, m, err = nextField(m); err != nil {
					return nil, err
				}
				switch lf.num {
				case 1:
					id = lf.val
				case 4: // line; the first line is the innermost inlined call
					for l := lf.bytes; len(l) > 0; {
						var ln protoField
						if ln, l, err = nextField(l); err != nil {
							return nil, err
						}
						if ln.num == 1 {
							fns = append(fns, ln.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			for m := f.bytes; len(m) > 0; {
				var ff protoField
				if ff, m, err = nextField(m); err != nil {
					return nil, err
				}
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		// runtime/pprof writes [samples/count, cpu/nanoseconds].
		w := int64(s.vals[len(s.vals)-1])
		if nTypes == 1 {
			w = int64(s.vals[0])
		}
		cs := cpuSample{weight: w}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const repoPrefix = "repro/internal/"

// repoBuckets maps a package directly under internal/ to its bucket;
// exp drives the applications and is counted with them. model and arch
// are cost-table and byte-order helpers called from every layer: their
// frames are charged to the caller.
var repoBuckets = map[string]string{
	"sim": "sim.host", "netsim": "netsim.host", "remoteop": "remoteop.host", "proto": "proto.host",
	"conv": "conv.host", "vaxfloat": "vaxfloat.host", "bufpool": "bufpool.host", "dsm": "dsm.host",
	"dsync": "dsync.host", "threads": "threads.host", "cluster": "cluster.host", "apps": "apps.host",
	"exp": "apps.host", "mc": "mc.host", "chaos": "chaos.host", "sctrace": "sctrace.host",
	"model": "", "arch": "",
}

// Runtime function-name prefixes (after "runtime."). rtSched is what a
// simulated context switch costs — channels, parking, run queues,
// futexes, the runtime's own locks; rtMem is allocation, garbage
// collection, stack growth with its unwinding, and bulk copies.
// Anything else in the runtime is rt.other. A Go upgrade that renames
// these moves shares silently, which TestClassify's fixture list is
// there to catch.
var (
	rtSched = []string{
		"chan", "send", "recv", "closechan", "select", "sel", "acquireSudog", "releaseSudog", "(*waitq)",
		"gopark", "goready", "ready", "park", "mPark", "dropg", "casgstatus", "(*guintptr)",
		"schedule", "findRunnable", "execute", "gogo", "mcall", "stealWork", "checkTimers", "resetspinning",
		"runq", "globrunq", "(*gQueue)", "(*gList)", "pidle", "wakep", "startm", "stopm", "handoffp",
		"acquirep", "releasep", "newproc", "goexit", "gfget", "gfput", "gdestroy", "Gosched", "gosched",
		"futex", "note", "lock", "unlock", "sema", "procyield", "osyield", "usleep", "nanotime",
		"sysmon", "retake", "preempt",
	}
	rtMem = []string{
		"malloc", "newobject", "newarray", "makeslice", "growslice", "makechan", "makemap", "nextFreeFast",
		"memclr", "memmove", "typedmemmove", "bulkBarrier", "wb",
		"gc", "scan", "mark", "sweep", "greyobject", "findObject", "spanOf", "heapBits", "typePointers",
		"bgsweep", "bgscavenge", "(*gcWork)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*spanSet)",
		"(*pageAlloc)", "madvise", "sysAlloc", "sysUsed", "sysUnused", "sysMap", "sysFree", "sysHugePage",
		"copystack", "newstack", "morestack", "stack", "adjust", "(*unwinder)", "(*stkframe)", "findfunc",
		"pcvalue", "step", "funcspdelta", "getStackMap",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify maps a function name to a share bucket: repo packages to
// their layer, the benchmark's own code to trace.bench, the Go runtime
// to rt.sched / rt.mem / rt.other, a repo package the table does not
// know to trace.other. It returns "" for a frame that works on behalf
// of its caller: the rest of the standard library (sort, hash,
// math/rand, encoding/binary …) and the repo's helper packages.
func classify(fn string) string {
	switch {
	case strings.HasPrefix(fn, repoPrefix):
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if b, ok := repoBuckets[pkg]; ok {
			return b
		}
		return "trace.other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/benchmark."):
		return "trace.bench"
	case strings.HasPrefix(fn, "runtime."):
		name := fn[len("runtime."):]
		switch {
		case hasAnyPrefix(name, rtMem):
			return "rt.mem"
		case hasAnyPrefix(name, rtSched):
			return "rt.sched"
		}
		return "rt.other"
	case strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/abi."), strings.HasPrefix(fn, "internal/cpu."),
		strings.HasPrefix(fn, "internal/bytealg."), strings.HasPrefix(fn, "internal/chacha8rand."):
		return "rt.other"
	}
	return ""
}

// bucketOf attributes a sample to the bucket of the first frame, from
// the leaf up, that classifies; trace.other when none does.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if b := classify(fn); b != "" {
			return b
		}
	}
	return "trace.other"
}

// shares turns samples into per-bucket percentages of total weight.
func shares(samples []cpuSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		by[bucketOf(s.stack)] += s.weight
		total += s.weight
	}
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		out[b+"_share"] = 0
		if total > 0 {
			out[b+"_share"] = 100 * float64(by[b]) / float64(total)
		}
	}
	return out
}
