// Package mermaid is a library reproduction of Mermaid, the
// heterogeneous distributed shared memory system of Zhou, Stumm and
// McInerney, "Extending Distributed Shared Memory to Heterogeneous
// Environments" (ICDCS 1990).
//
// A Cluster simulates a network of big-endian Sun-3 workstations and
// little-endian, VAX-float DEC Firefly multiprocessors sharing one
// 10 Mb/s Ethernet, entirely in deterministic virtual time. On top of it
// runs the Mermaid system: Li's multiple-reader/single-writer
// write-invalidate DSM with fixed distributed managers, a typed
// allocator that keeps one data type per page, automatic data conversion
// (byte order, IEEE↔VAX floats, pointer rebasing) when pages migrate
// between unlike machines, user-level threads with remote creation, and
// a distributed synchronization facility with P/V semaphores, events and
// barriers.
//
// Programs are written as thread functions receiving an *Env, which
// exposes typed shared-memory access, thread creation, synchronization,
// and a Compute call that charges calibrated virtual CPU time:
//
//	c, _ := mermaid.New(mermaid.Config{Hosts: []mermaid.HostSpec{
//		{Kind: mermaid.Sun},
//		{Kind: mermaid.Firefly, CPUs: 4},
//	}})
//	c.DefineSemaphore(1, 0, 0)
//	worker := c.MustRegisterFunc(func(e *mermaid.Env, args []uint32) {
//		v := e.ReadInt32(mermaid.Addr(args[0]))
//		e.WriteInt32(mermaid.Addr(args[0]), v*2)
//		e.V(1)
//	})
//	elapsed := c.Run(0, func(e *mermaid.Env) {
//		addr, _ := e.Alloc(mermaid.Int32, 1)
//		e.WriteInt32(addr, 21)
//		e.CreateThread(1, worker, uint32(addr))
//		e.P(1)
//		fmt.Println(e.ReadInt32(addr)) // 42, after a Sun→Firefly→Sun trip
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package mermaid

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/threads"
)

// Machine kinds.
const (
	// Sun is a Sun-3/60 workstation: one CPU, big-endian, IEEE floats,
	// 8 KB native VM pages.
	Sun = arch.Sun
	// Firefly is a DEC Firefly: up to 7 CPUs, little-endian, VAX
	// floats, 1 KB native VM pages.
	Firefly = arch.Firefly
)

// Basic shared-memory data types.
const (
	// Char is an 8-bit character (no conversion).
	Char = conv.Char
	// Int16 is a 16-bit integer ("short").
	Int16 = conv.Int16
	// Int32 is a 32-bit integer ("int").
	Int32 = conv.Int32
	// Float32 is a single-precision float (IEEE single / VAX F).
	Float32 = conv.Float32
	// Float64 is a double-precision float (IEEE double / VAX G).
	Float64 = conv.Float64
	// Pointer is a 32-bit shared-memory pointer, rebased on conversion.
	Pointer = conv.Pointer
)

// Coherence policies (§2.1: multiple DSM algorithms on one system).
const (
	// MRSW is Li's write-invalidate algorithm, the paper's default.
	MRSW = dsm.PolicyMRSW
	// Migration keeps one migrating copy per page (no replication).
	Migration = dsm.PolicyMigration
	// Central performs every access remotely at the page's server.
	Central = dsm.PolicyCentral
	// Update replicates on read and pushes sequenced writes to every
	// replica instead of invalidating (write-update, full replication).
	Update = dsm.PolicyUpdate
	// Quorum replicates every page at every host and runs SC-ABD
	// majority-quorum reads and writes: operations complete in any
	// network component holding a majority of the hosts.
	Quorum = dsm.PolicyQuorum
	// RC is lazy release consistency: every resident copy is writable,
	// writes are diffed against a twin and pushed to the page's home at
	// release time (V, SetEvent, Barrier), and acquires (P, WaitEvent,
	// Barrier) pull the intervals the releaser's vector timestamp
	// implies. The only policy whose memory model is weaker than
	// sequential consistency: unsynchronized reads may be stale.
	RC = dsm.PolicyRC
)

// Directory schemes (§3.1: how page managers are located).
const (
	// DirFixed distributes fixed managers across hosts (the paper's
	// choice, and the default).
	DirFixed = dsm.DirFixed
	// DirCentral places every page's manager on host 0.
	DirCentral = dsm.DirCentral
	// DirDynamic is Li & Hudak's dynamic distributed manager: no
	// managers, probable-owner hint chains with path compression.
	DirDynamic = dsm.DirDynamic
)

// Page size algorithm selectors (§2.4 of the paper).
const (
	// LargestPageSize uses 8 KB DSM pages (the Sun's VM page size).
	LargestPageSize = 8192
	// SmallestPageSize uses 1 KB DSM pages (the Firefly's VM page size).
	SmallestPageSize = 1024
)

// Re-exported identifier types.
type (
	// HostID identifies a host in the cluster (dense, from 0).
	HostID = cluster.HostID
	// Addr is a shared-memory address (offset into the DSM space).
	Addr = dsm.Addr
	// TypeID identifies a registered shared-memory data type.
	TypeID = conv.TypeID
	// FuncID identifies a registered thread entry point.
	FuncID = threads.FuncID
	// HostSpec describes one machine: its Kind and CPU count.
	HostSpec = cluster.HostSpec
	// Kind is a machine kind (Sun or Firefly).
	Kind = arch.Kind
	// Policy is a coherence algorithm selector.
	Policy = dsm.Policy
	// Directory is a manager-placement scheme selector.
	Directory = dsm.Directory
	// Field is one field of a compound shared-memory type.
	Field = conv.Field
	// SharedPtr marks a DSM-pointer field in a Go struct registered
	// with RegisterGoStruct.
	SharedPtr = conv.Ptr
	// DSMStats are per-host (or aggregated) DSM counters.
	DSMStats = dsm.Stats
	// NetStats are network-level counters.
	NetStats = netsim.Stats
	// Topology is a switched multi-segment network shape; nil (the
	// default) is the paper's single shared bus.
	Topology = netsim.Topology
	// SegmentSpec describes one shared-medium segment of a Topology.
	SegmentSpec = netsim.SegmentSpec
	// LinkSpec describes one inter-segment link of a Topology.
	LinkSpec = netsim.LinkSpec
	// CostModel is the calibrated virtual-time cost model.
	CostModel = model.Params
)

// Config describes a cluster to build.
type Config struct {
	// Hosts lists the machines; host 0 hosts the allocation manager.
	Hosts []HostSpec
	// PageSize selects the DSM page size algorithm: LargestPageSize
	// (default) or SmallestPageSize.
	PageSize int
	// SpaceSize is the shared address space size in bytes (default 4 MiB).
	SpaceSize int
	// Seed makes runs reproducible; equal seeds give identical runs.
	Seed int64
	// DisableConversion turns off data conversion (ablation only —
	// heterogeneous clusters then compute garbage, demonstrably).
	DisableConversion bool
	// PreferSameKindSource serves read faults from a same-type holder
	// when possible, avoiding conversions (§2.3's optimization).
	PreferSameKindSource bool
	// DirectoryScheme selects how page owners are located: DirFixed
	// (default), DirCentral (every page's manager on host 0 instead of
	// distributed managers — the ablation of the paper's design), or
	// DirDynamic (§3.1's ablation axis).
	DirectoryScheme Directory
	// Policy selects the coherence algorithm: MRSW (default), Migration
	// or Central — the "multiple DSM packages" §2.1 argues a user-level
	// implementation makes easy to provide.
	Policy Policy
	// UnicastInvalidate replaces the paper's broadcast multicast
	// invalidation (§2.2) with per-member calls (ablation).
	UnicastInvalidate bool
	// DropRate is the probability, in [0, 1], that a frame is lost on
	// the wire (0 gives a reliable wire). It is a whole-run loss window
	// of the network's fault plan.
	DropRate float64
	// Net selects the network shape: nil is the paper's single shared
	// bus; a multi-segment Topology places hosts on switched segments
	// joined by profiled links (netsim.SwitchedStar builds the common
	// star shape). A one-segment Topology is bit-identical to the bus.
	Net *Topology
	// Model overrides the calibrated cost model (nil uses the default
	// fitted to the paper's Tables 1–3).
	Model *CostModel
}

// Cluster is a simulated Mermaid system.
type Cluster struct {
	c      *cluster.Cluster
	nextFn FuncID
}

// SwitchedStar builds the standard scaled topology: `segments` leaf
// segments of `hostsPerSegment` hosts each, star-linked through
// segment 0, every profile inheriting the cost model.
func SwitchedStar(segments, hostsPerSegment int) *Topology {
	return netsim.SwitchedStar(segments, hostsPerSegment)
}

// New builds a cluster. Register thread functions, compound types, and
// synchronization primitives before the first Run.
func New(cfg Config) (*Cluster, error) {
	if !(cfg.DropRate >= 0 && cfg.DropRate <= 1) {
		return nil, fmt.Errorf("mermaid: DropRate %v outside [0, 1]", cfg.DropRate)
	}
	var plan *netsim.FaultPlan
	if cfg.DropRate > 0 {
		plan = &netsim.FaultPlan{Loss: []netsim.Burst{{Rate: cfg.DropRate}}}
	}
	inner, err := cluster.New(cluster.Config{
		Hosts:                cfg.Hosts,
		PageSize:             cfg.PageSize,
		SpaceSize:            cfg.SpaceSize,
		Seed:                 cfg.Seed,
		DisableConversion:    cfg.DisableConversion,
		PreferSameKindSource: cfg.PreferSameKindSource,
		Directory:            cfg.DirectoryScheme,
		Policy:               cfg.Policy,
		UnicastInvalidate:    cfg.UnicastInvalidate,
		FaultPlan:            plan,
		Topology:             cfg.Net,
		Params:               cfg.Model,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: inner, nextFn: 1}, nil
}

// Hosts returns the number of hosts.
func (c *Cluster) Hosts() int { return len(c.c.Hosts) }

// KindOf returns the machine kind of a host.
func (c *Cluster) KindOf(h HostID) Kind { return c.c.Hosts[h].Arch.Kind }

// Model returns the active cost model.
func (c *Cluster) Model() *CostModel { return c.c.Params }

// RegisterStruct registers a compound shared-memory type from an
// ordered field list; the conversion routine is composed from the
// fields' routines, as §2.3 prescribes.
func (c *Cluster) RegisterStruct(name string, fields []Field) (TypeID, error) {
	return c.c.Registry.RegisterStruct(name, fields)
}

// RegisterGoStruct derives a compound type's field list — and so its
// conversion routine — from a Go struct definition, the library's
// analogue of the automatic routine generation §5 reports as work in
// progress. Supported field types: int8/16/32, uint8/16/32, float32/64,
// conv.Ptr (as mermaid.SharedPtr), fixed arrays, nested structs.
func (c *Cluster) RegisterGoStruct(t reflect.Type) (TypeID, error) {
	return c.c.Registry.RegisterGoStruct(t)
}

// MustRegisterFunc registers a thread entry point and returns its ID.
func (c *Cluster) MustRegisterFunc(fn func(e *Env, args []uint32)) FuncID {
	id := c.nextFn
	c.nextFn++
	c.c.Funcs.MustRegister(id, func(t *threads.Thread, args []uint32) {
		fn(&Env{c: c, p: t.P, host: c.c.Hosts[t.Host()], thread: t}, args)
	})
	return id
}

// DefineSemaphore declares a distributed semaphore (P/V) with its
// manager host and initial count.
func (c *Cluster) DefineSemaphore(id uint32, manager HostID, initial int) {
	c.c.DefineSemaphore(id, manager, initial)
}

// DefineEvent declares a distributed event with its manager host.
func (c *Cluster) DefineEvent(id uint32, manager HostID) {
	c.c.DefineEvent(id, manager)
}

// DefineBarrier declares a distributed barrier for n participants.
func (c *Cluster) DefineBarrier(id uint32, manager HostID, n int) {
	c.c.DefineBarrier(id, manager, n)
}

// Run executes main as a thread on the given host, drives the
// simulation until it returns, and reports the elapsed virtual time.
func (c *Cluster) Run(host HostID, main func(e *Env)) time.Duration {
	return c.c.Run(host, func(p *sim.Proc, h *cluster.Host) {
		main(&Env{c: c, p: p, host: h})
	})
}

// Close ends the simulation: every simulated process still parked is
// unwound and the kernel's coroutines — live and idle — are released.
// Without it they, and the page frames they reference, stay for the
// life of the Go process, which only matters to a program that builds
// many clusters. Read results first; the cluster must not be used
// afterwards.
func (c *Cluster) Close() { c.c.Close() }

// StatsOf returns one host's DSM counters.
func (c *Cluster) StatsOf(h HostID) DSMStats { return c.c.Hosts[h].DSM.Stats() }

// TotalStats aggregates DSM counters across all hosts.
func (c *Cluster) TotalStats() DSMStats { return c.c.TotalDSMStats() }

// NetStats returns the network counters.
func (c *Cluster) NetStats() NetStats { return c.c.Net.Stats() }

// Env is a running thread's view of the system: typed shared memory,
// thread management, synchronization, and virtual CPU time.
type Env struct {
	c      *Cluster
	p      *sim.Proc
	host   *cluster.Host
	thread *threads.Thread
}

// Host returns the host this thread runs on.
func (e *Env) Host() HostID { return e.host.ID }

// Kind returns the machine kind of this thread's host.
func (e *Env) Kind() Kind { return e.host.Arch.Kind }

// Now returns the current virtual time since simulation start.
func (e *Env) Now() time.Duration { return time.Duration(e.p.Now()) }

// Compute charges d of Firefly-baseline CPU work on one of the host's
// processors (scaled by the host's speed factor).
func (e *Env) Compute(d time.Duration) {
	if e.thread != nil {
		e.thread.Compute(d)
		return
	}
	// The main function runs outside the thread package; model its
	// compute the same way using the host CPU pool via a transient
	// sleep scaled by the host factor (master threads in the paper's
	// applications coordinate rather than compute).
	e.p.Sleep(e.c.c.Params.Scale(e.host.Arch.Kind, d))
}

// Alloc reserves count elements of the given type in shared memory; the
// typed allocator guarantees a page holds one type only (§2.3).
func (e *Env) Alloc(t TypeID, count int) (Addr, error) {
	return e.host.DSM.Alloc(e.p, t, count)
}

// MustAlloc is Alloc, panicking on failure.
func (e *Env) MustAlloc(t TypeID, count int) Addr {
	a, err := e.Alloc(t, count)
	if err != nil {
		panic(fmt.Sprintf("mermaid: alloc: %v", err))
	}
	return a
}

// ReadBytes copies raw bytes from Char pages.
func (e *Env) ReadBytes(addr Addr, buf []byte) { e.host.DSM.ReadBytes(e.p, addr, buf) }

// WriteBytes stores raw bytes to Char pages.
func (e *Env) WriteBytes(addr Addr, data []byte) { e.host.DSM.WriteBytes(e.p, addr, data) }

// ReadInt32 loads one int32.
func (e *Env) ReadInt32(addr Addr) int32 { return e.host.DSM.ReadInt32(e.p, addr) }

// WriteInt32 stores one int32.
func (e *Env) WriteInt32(addr Addr, v int32) { e.host.DSM.WriteInt32(e.p, addr, v) }

// ReadInt32s loads consecutive int32 elements.
func (e *Env) ReadInt32s(addr Addr, dst []int32) { e.host.DSM.ReadInt32s(e.p, addr, dst) }

// WriteInt32s stores consecutive int32 elements.
func (e *Env) WriteInt32s(addr Addr, src []int32) { e.host.DSM.WriteInt32s(e.p, addr, src) }

// ReadInt16s loads consecutive int16 elements.
func (e *Env) ReadInt16s(addr Addr, dst []int16) { e.host.DSM.ReadInt16s(e.p, addr, dst) }

// WriteInt16s stores consecutive int16 elements.
func (e *Env) WriteInt16s(addr Addr, src []int16) { e.host.DSM.WriteInt16s(e.p, addr, src) }

// ReadFloat32s loads consecutive float32 elements.
func (e *Env) ReadFloat32s(addr Addr, dst []float32) { e.host.DSM.ReadFloat32s(e.p, addr, dst) }

// WriteFloat32s stores consecutive float32 elements.
func (e *Env) WriteFloat32s(addr Addr, src []float32) { e.host.DSM.WriteFloat32s(e.p, addr, src) }

// ReadFloat64s loads consecutive float64 elements.
func (e *Env) ReadFloat64s(addr Addr, dst []float64) { e.host.DSM.ReadFloat64s(e.p, addr, dst) }

// WriteFloat64s stores consecutive float64 elements.
func (e *Env) WriteFloat64s(addr Addr, src []float64) { e.host.DSM.WriteFloat64s(e.p, addr, src) }

// ReadPointer loads a shared-memory pointer; ok is false for null.
func (e *Env) ReadPointer(addr Addr) (Addr, bool) { return e.host.DSM.ReadPointer(e.p, addr) }

// WritePointer stores a shared-memory pointer (ok=false stores null).
func (e *Env) WritePointer(addr Addr, target Addr, ok bool) {
	e.host.DSM.WritePointer(e.p, addr, target, ok)
}

// AtomicSwapInt32 atomically exchanges a shared int32, returning the
// old value. Building locks this way ping-pongs whole pages between
// hosts (§2.2) — prefer the semaphores; this exists to demonstrate why.
func (e *Env) AtomicSwapInt32(addr Addr, v int32) int32 {
	return e.host.DSM.AtomicSwapInt32(e.p, addr, v)
}

// ReadStruct copies raw native bytes of a registered compound type.
func (e *Env) ReadStruct(addr Addr, t TypeID, buf []byte) {
	e.host.DSM.ReadStruct(e.p, addr, t, buf)
}

// WriteStruct stores raw native bytes of a registered compound type.
func (e *Env) WriteStruct(addr Addr, t TypeID, data []byte) {
	e.host.DSM.WriteStruct(e.p, addr, t, data)
}

// MigrateTo moves the calling thread to another host (§2.2: threads may
// be created in an application and later moved to other hosts). After
// it returns, computation, page faults and synchronization all happen
// from the destination host. Only worker threads migrate; the main
// function cannot.
func (e *Env) MigrateTo(host HostID) error {
	if e.thread == nil {
		return fmt.Errorf("mermaid: the main function cannot migrate")
	}
	if err := e.thread.MigrateTo(host); err != nil {
		return err
	}
	e.host = e.c.c.Hosts[host]
	return nil
}

// Field codecs: structs read with ReadStruct arrive as raw bytes in
// this host's native representation; these helpers decode and encode
// individual fields of such buffers (big-endian IEEE on a Sun,
// little-endian VAX floats on a Firefly).

// Int16At decodes an int16 field at off in a native struct buffer.
func (e *Env) Int16At(buf []byte, off int) int16 { return conv.GetInt16(e.host.Arch, buf[off:]) }

// PutInt16At encodes an int16 field at off in a native struct buffer.
func (e *Env) PutInt16At(buf []byte, off int, v int16) { conv.PutInt16(e.host.Arch, buf[off:], v) }

// Int32At decodes an int32 field at off in a native struct buffer.
func (e *Env) Int32At(buf []byte, off int) int32 { return conv.GetInt32(e.host.Arch, buf[off:]) }

// PutInt32At encodes an int32 field at off in a native struct buffer.
func (e *Env) PutInt32At(buf []byte, off int, v int32) { conv.PutInt32(e.host.Arch, buf[off:], v) }

// Float32At decodes a float32 field at off in a native struct buffer.
func (e *Env) Float32At(buf []byte, off int) float32 { return conv.GetFloat32(e.host.Arch, buf[off:]) }

// PutFloat32At encodes a float32 field at off in a native struct buffer.
func (e *Env) PutFloat32At(buf []byte, off int, v float32) {
	conv.PutFloat32(e.host.Arch, buf[off:], v)
}

// Float64At decodes a float64 field at off in a native struct buffer.
func (e *Env) Float64At(buf []byte, off int) float64 { return conv.GetFloat64(e.host.Arch, buf[off:]) }

// PutFloat64At encodes a float64 field at off in a native struct buffer.
func (e *Env) PutFloat64At(buf []byte, off int, v float64) {
	conv.PutFloat64(e.host.Arch, buf[off:], v)
}

// PointerAt decodes a shared-memory pointer field; ok is false for null.
func (e *Env) PointerAt(buf []byte, off int) (Addr, bool) {
	raw := conv.GetPointer(e.host.Arch, buf[off:])
	if raw == 0 {
		return 0, false
	}
	return Addr(raw - e.host.DSM.Base()), true
}

// PutPointerAt encodes a shared-memory pointer field (ok=false: null).
func (e *Env) PutPointerAt(buf []byte, off int, target Addr, ok bool) {
	raw := uint32(0)
	if ok {
		raw = e.host.DSM.Base() + uint32(target)
	}
	conv.PutPointer(e.host.Arch, buf[off:], raw)
}

// CreateThread starts a registered function as a new thread on the
// given host (local or remote creation, §2.2).
func (e *Env) CreateThread(host HostID, fn FuncID, args ...uint32) (*ThreadHandle, error) {
	h, err := e.host.Threads.Create(e.p, host, fn, args)
	if err != nil {
		return nil, err
	}
	return &ThreadHandle{h: h, p: e.p}, nil
}

// P performs the semaphore P (acquire) operation. Under the RC policy
// every P is an acquire: it merges the vector timestamp riding the
// grant and pulls the page updates it implies.
func (e *Env) P(sem uint32) { e.host.Sync.P(e.p, sem) }

// V performs the semaphore V (release) operation. Under the RC policy
// every V is a release: it pushes the current interval's page diffs to
// their homes and stamps the semaphore with this host's timestamp.
func (e *Env) V(sem uint32) { e.host.Sync.V(e.p, sem) }

// Acquire is the RC acquire operation, spelled as itself: it takes the
// semaphore as a lock entry. Identical to P; the name documents intent
// at RC call sites (release-consistent code reads Acquire/Release even
// though every sync primitive already carries the payloads).
func (e *Env) Acquire(sem uint32) { e.host.Sync.P(e.p, sem) }

// Release is the RC release operation, spelled as itself. Identical to
// V: it closes the current interval and publishes its writes.
func (e *Env) Release(sem uint32) { e.host.Sync.V(e.p, sem) }

// WaitEvent blocks until the event is set.
func (e *Env) WaitEvent(ev uint32) { e.host.Sync.EventWait(e.p, ev) }

// SetEvent sets the event, releasing all waiters.
func (e *Env) SetEvent(ev uint32) { e.host.Sync.EventSet(e.p, ev) }

// Barrier blocks until all participants have arrived.
func (e *Env) Barrier(b uint32) { e.host.Sync.BarrierArrive(e.p, b) }

// ThreadHandle joins a created thread.
type ThreadHandle struct {
	h *threads.Handle
	p *sim.Proc
}

// Join blocks until the thread has finished.
func (t *ThreadHandle) Join() { t.h.Join(t.p) }
