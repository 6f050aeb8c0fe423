package main

// fault-storm: zero-compute page-fault traffic on a four-host
// Sun/Firefly/Sun/Firefly cluster, once per replication-engine cell.
// The DSM engines, remoteop, proto, conv and allocation do the work;
// apps does none. Every value read is checked against a shadow model:
// each slot has exactly one writer (the host the slot is named after)
// and holds that writer's monotone counter.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/sim"
	"repro/internal/threads"
)

const (
	stormHosts    = 4
	stormPages    = 4 // pages per region
	stormPageSize = 8192
	stormRegions  = 3
	// Full-scale operation counts of the three phases. Fixed counts,
	// not a time budget, so the simulated statistics of an iteration
	// are the same on every commit that does not change behaviour.
	stormSerialOps = 1200 // accesses by the one serial thread
	stormShareOps  = 360  // accesses per host, read-share
	stormPongOps   = 240  // accesses per host, write-pingpong

	stormLock   = 1 // the semaphore of a bracketed cell
	stormWriter = 1 // the one writing host of the read-share phase
	stormFunc   = threads.FuncID(1)
)

type stormCell struct {
	name   string
	policy dsm.Policy
	dir    dsm.Directory
	// bracket makes every access one interval between a P and a V on
	// one semaphore. Lazy release consistency orders accesses only
	// through synchronization, and unsynchronised writers of one page do
	// not terminate under it (README.md, caveats).
	bracket bool
	// ownPages keeps each concurrent writer on a page of its own. The
	// quorum engine's register is the whole page: two hosts storing to
	// different words of one page at once overwrite each other's words
	// (README.md, caveats), which the shadow model reports as a lost
	// update, and no operation of a workload may fail.
	ownPages bool
}

// stormCells are the engine cells, in run order.
var stormCells = []stormCell{
	{name: "mrsw", policy: dsm.PolicyMRSW},
	{name: "mrsw-dyn", policy: dsm.PolicyMRSW, dir: dsm.DirDynamic},
	{name: "migration", policy: dsm.PolicyMigration},
	{name: "central", policy: dsm.PolicyCentral},
	{name: "update", policy: dsm.PolicyUpdate},
	{name: "quorum", policy: dsm.PolicyQuorum, ownPages: true},
	{name: "rc", policy: dsm.PolicyRC, bracket: true},
}

// stormRecord is the registered compound type of the third region: a
// pointer field makes its conversion take the op-stream path with
// rebasing between the two machine types' DSM base addresses.
var stormRecord = []conv.Field{{Type: conv.Int32, Count: 1}, {Type: conv.Pointer, Count: 1}, {Type: conv.Float64, Count: 1}}

const stormRecordSize = 16

type stormRegion struct {
	typeID   conv.TypeID
	base     dsm.Addr
	elemSize int
}

// slotAddr is the address of host slot's element on page pg: the four
// slots of a page are spread a quarter page apart.
func (r stormRegion) slotAddr(pg, slot int) dsm.Addr {
	perPage := stormPageSize / r.elemSize
	return r.base + dsm.Addr((pg*perPage+slot*(perPage/stormHosts))*r.elemSize)
}

type storm struct {
	c       *cluster.Cluster
	cfg     runCfg
	cell    stormCell
	runID   int32 // the cell's Cluster.Run span, parent of its accesses
	out     *iterOut
	regions [stormRegions]stormRegion

	// The shadow model. written is the counter the slot's writer last
	// began to store; seen is the newest counter each reader has
	// observed in the slot.
	written [stormRegions][stormPages][stormHosts]int32
	seen    [stormHosts][stormRegions][stormPages][stormHosts]int32
	// exact demands that a read return precisely written: true while
	// one thread runs at a time, so no store can be in flight.
	exact   bool
	flipped bool

	accesses, faults int
	faultSimNS       int64
	phase            string
}

// access performs one checked accessor call on host h and accounts it
// as a fault when virtual time advanced inside it.
func (s *storm) access(p *sim.Proc, h, region, pg, slot int, write bool) {
	host := s.c.Hosts[h]
	if s.cell.bracket {
		host.Sync.P(p, stormLock)
	}
	r := s.regions[region]
	addr := r.slotAddr(pg, slot)
	start, sim0 := s.cfg.tr.now(), p.Now()
	if write {
		s.written[region][pg][slot]++
		s.store(p, host, r, addr, s.written[region][pg][slot])
		if s.cfg.flipShadow && !s.flipped && s.exact {
			s.written[region][pg][slot]++
			s.flipped = true
		}
	} else {
		got, ok := s.load(p, host, r, addr)
		want := s.written[region][pg][slot]
		seen := &s.seen[h][region][pg][slot]
		good := ok && got >= *seen && got <= want
		if s.exact || s.cell.bracket || h == slot {
			good = ok && got == want
		}
		s.out.check(good, "fault-storm %s %s host %d region %d page %d slot %d: read %d (well-formed %v), writer at %d, reader had seen %d",
			s.cell.name, s.phase, h, region, pg, slot, got, ok, want, *seen)
		*seen = max(*seen, got)
	}
	s.accesses++
	if d := p.Now().Sub(sim0); d > 0 {
		s.faults++
		s.faultSimNS += int64(d)
		if s.cfg.tr != nil {
			name := "read-fault"
			if write {
				name = "write-fault"
			}
			s.cfg.tr.access(name, s.runID, start, int64(sim0), int64(p.Now()))
			s.out.sample("fault_sim_ms", float64(d)/1e6)
			s.out.sample(s.cell.name+".fault_sim_ms", float64(d)/1e6)
			if s.exact {
				us := float64(s.cfg.tr.now()-start) / 1e3
				s.out.sample(name+"_host_us", us)
				s.out.sample(s.cell.name+".fault_host_us", us)
			}
		}
	}
	if s.cell.bracket {
		host.Sync.V(p, stormLock)
	}
}

// store writes counter n into the element at addr in the region's type.
func (s *storm) store(p *sim.Proc, host *cluster.Host, r stormRegion, addr dsm.Addr, n int32) {
	switch r.typeID {
	case conv.Float64:
		host.DSM.WriteFloat64s(p, addr, []float64{float64(n) + 0.25})
	case conv.Int32:
		host.DSM.WriteInt32(p, addr, n)
	default:
		var b [stormRecordSize]byte
		conv.PutInt32(host.Arch, b[0:4], n)
		conv.PutPointer(host.Arch, b[4:8], host.DSM.Base()+uint32(addr))
		conv.PutFloat64(host.Arch, b[8:16], float64(n)/2)
		host.DSM.WriteStruct(p, addr, r.typeID, b[:])
	}
}

// load reads the element at addr and decodes the counter it holds; ok
// is false when the bytes are not a value store can have written.
func (s *storm) load(p *sim.Proc, host *cluster.Host, r stormRegion, addr dsm.Addr) (n int32, ok bool) {
	switch r.typeID {
	case conv.Float64:
		var v [1]float64
		host.DSM.ReadFloat64s(p, addr, v[:])
		if v[0] == 0 {
			return 0, true
		}
		n = int32(v[0])
		return n, v[0] == float64(n)+0.25
	case conv.Int32:
		return host.DSM.ReadInt32(p, addr), true
	default:
		var b [stormRecordSize]byte
		host.DSM.ReadStruct(p, addr, r.typeID, b[:])
		n = conv.GetInt32(host.Arch, b[0:4])
		ptr := conv.GetPointer(host.Arch, b[4:8])
		val := conv.GetFloat64(host.Arch, b[8:16])
		if n == 0 {
			return 0, ptr == 0 && val == 0
		}
		return n, ptr == host.DSM.Base()+uint32(addr) && val == float64(n)/2
	}
}

// serial alternates read and write faults between the hosts from one
// simulated thread, so exactly one accessor call is in progress and its
// host span covers nothing else. Steps come in pairs on one page: the
// second host of a pair is of the other architecture than the first.
func (s *storm) serial(p *sim.Proc, rng *rand.Rand) {
	s.phase, s.exact = "serial", true
	var region, pg int
	for i := 0; i < s.cfg.n(stormSerialOps); i++ {
		if i%2 == 0 {
			region, pg = rng.Intn(stormRegions), rng.Intn(stormPages)
		}
		h := i % stormHosts
		if (i/stormHosts+i)%2 == 0 {
			s.access(p, h, region, pg, h, true)
		} else {
			s.access(p, h, region, pg, rng.Intn(stormHosts), false)
		}
	}
	s.exact = false
}

// concurrent runs one worker thread per host, created through the
// thread manager as the applications do, and joins them.
func (s *storm) concurrent(p *sim.Proc, h0 *cluster.Host, phase string, phaseNo uint32) {
	s.phase = phase
	var handles []*threads.Handle
	for h := 0; h < stormHosts; h++ {
		id := s.cfg.tr.begin("CreateThread", s.runID)
		hd, err := h0.Threads.Create(p, cluster.HostID(h), stormFunc, []uint32{phaseNo})
		s.cfg.tr.end(id)
		if err != nil {
			panic(fmt.Sprintf("fault-storm: creating worker on host %d: %v", h, err))
		}
		handles = append(handles, hd)
	}
	for _, hd := range handles {
		hd.Join(p)
	}
}

// worker is the body of one concurrent-phase thread. Phase 1 is
// read-share: everyone reads, only stormWriter stores (40 % of its
// accesses, 10 % of all). Phase 2 is write-pingpong: 90 % stores to the
// host's own slot.
func (s *storm) worker(t *threads.Thread, phaseNo uint32) {
	h := int(t.Host())
	rng := rand.New(rand.NewSource(s.cfg.seed<<16 ^ int64(phaseNo)<<8 ^ int64(h)))
	ops, writePct := s.cfg.n(stormShareOps), 0
	switch {
	case phaseNo == 2:
		ops, writePct = s.cfg.n(stormPongOps), 90
	case h == stormWriter:
		writePct = 40
	}
	for i := 0; i < ops; i++ {
		region, pg := rng.Intn(stormRegions), rng.Intn(stormPages)
		if rng.Intn(100) < writePct {
			if s.cell.ownPages {
				pg = h % stormPages
			}
			s.access(t.P, h, region, pg, h, true)
		} else {
			s.access(t.P, h, region, pg, rng.Intn(stormHosts), false)
		}
	}
}

// runStormCell runs one engine cell and adds it to the iteration.
func runStormCell(cfg runCfg, cell stormCell, out *iterOut, dg digest) {
	t0 := time.Now()
	cellID := cfg.tr.begin("cell:"+cell.name, -1)
	defer cfg.tr.end(cellID)

	reg := conv.NewRegistry()
	recID, err := reg.RegisterStruct("storm-record", stormRecord)
	if err != nil {
		panic(err) // a static field list of basic types cannot be rejected
	}
	newID := cfg.tr.begin("cluster.New", cellID)
	c, err := cluster.New(cluster.Config{
		Hosts: []cluster.HostSpec{
			{Kind: arch.Sun}, {Kind: arch.Firefly, CPUs: 2}, {Kind: arch.Sun}, {Kind: arch.Firefly, CPUs: 2},
		},
		PageSize:  stormPageSize,
		Registry:  reg,
		Seed:      cfg.seed,
		Policy:    cell.policy,
		Directory: cell.dir,
	})
	cfg.tr.end(newID)
	if err != nil {
		panic(fmt.Sprintf("fault-storm: cell %s: %v", cell.name, err))
	}
	defer c.K.Shutdown()

	s := &storm{c: c, cfg: cfg, cell: cell, out: out}
	c.DefineSemaphore(stormLock, 0, 1)
	c.Funcs.MustRegister(stormFunc, func(t *threads.Thread, args []uint32) { s.worker(t, args[0]) })

	s.runID = cfg.tr.begin("Cluster.Run", cellID)
	elapsed := c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		for i, ty := range []struct {
			id   conv.TypeID
			size int
		}{{conv.Float64, 8}, {conv.Int32, 4}, {recID, stormRecordSize}} {
			base, err := h0.DSM.Alloc(p, ty.id, stormPages*stormPageSize/ty.size)
			if err != nil {
				panic(fmt.Sprintf("fault-storm: cell %s: alloc: %v", cell.name, err))
			}
			s.regions[i] = stormRegion{typeID: ty.id, base: base, elemSize: ty.size}
		}
		s.serial(p, rand.New(rand.NewSource(cfg.seed)))
		s.concurrent(p, h0, "read-share", 1)
		s.concurrent(p, h0, "write-pingpong", 2)
	})
	cfg.tr.end(s.runID)

	addClusterStats(out, dg, c)
	dg.add(cell.name, s.faults, s.accesses, s.faultSimNS, int64(elapsed), s.written)
	out.simS += elapsed.Seconds()
	out.ops += float64(s.faults)
	out.layer["dsm.faulting_accesses"] += float64(s.faults)
	out.layer["dsm."+cell.name+".faults"] = float64(s.faults)
	out.layer["dsm."+cell.name+".host_s"] = time.Since(t0).Seconds()
}

func faultStorm(cfg runCfg) iterOut {
	out := newIterOut()
	dg := newDigest()
	for _, cell := range stormCells {
		runStormCell(cfg, cell, &out, dg)
	}
	dg.add(out.simS)
	out.digest = dg.sum()
	return out
}
