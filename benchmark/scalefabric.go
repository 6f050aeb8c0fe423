package main

// scale-fabric: the three phases of exp.DirectoryScaling on 1024 hosts,
// built here with cluster.New so that Net.Stats() and every access are
// reachable. netsim's topology and multicast tree, the sim event heap
// with more than a thousand live processes, and cluster.New itself do
// the work; each host sends only a couple of dozen DSM messages. The
// unit of work is one frame sent.

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

const (
	fabricHosts   = 1024
	fabricSegment = 32 // hosts per switched segment
	fabricPages   = 8
	fabricPerPage = 256 // int32s per 1 KB page
)

var fabricDirs = []dsm.Directory{dsm.DirFixed, dsm.DirCentral, dsm.DirDynamic}

// fabricTopology is the switched shape for n hosts: fabricSegment-host
// segments (at least two) star-linked through segment 0.
func fabricTopology(n int) *netsim.Topology {
	segs := max(2, n/fabricSegment)
	return netsim.SwitchedStar(segs, (n+segs-1)/segs)
}

func scaleFabric(cfg runCfg) iterOut {
	out := newIterOut()
	dg := newDigest()
	n := max(8, cfg.n(fabricHosts))
	for _, topo := range []string{"bus", "switched"} {
		for _, d := range fabricDirs {
			cellID := cfg.tr.begin("cell:"+topo+"/"+d.String(), -1)
			runFabricCell(cfg, n, topo, d, cellID, &out, dg)
			cfg.tr.end(cellID)
		}
	}
	out.ops = out.layer["netsim.frames_sent"]
	dg.add(out.simS)
	out.digest = dg.sum()
	return out
}

func runFabricCell(cfg runCfg, n int, topo string, dir dsm.Directory, cellID int32, out *iterOut, dg digest) {
	hosts := make([]cluster.HostSpec, n)
	hosts[0] = cluster.HostSpec{Kind: arch.Sun}
	for i := 1; i < n; i++ {
		hosts[i] = cluster.HostSpec{Kind: arch.Firefly}
	}
	var t *netsim.Topology
	if topo == "switched" {
		t = fabricTopology(n)
	}

	newID := cfg.tr.begin("cluster.New", cellID)
	c, err := cluster.New(cluster.Config{Hosts: hosts, Seed: cfg.seed, PageSize: 1024, Directory: dir, Topology: t})
	cfg.tr.end(newID)
	if err != nil {
		panic(fmt.Sprintf("scale-fabric: %s/%v: %v", topo, dir, err))
	}

	// The seed picks where the ring starts and who invalidates the hot
	// page, so segment crossings — and with them simulated time — vary
	// by seed while the operation counts do not.
	rng := rand.New(rand.NewSource(cfg.seed))
	start, writer := rng.Intn(n-1), 1+rng.Intn(n-1)
	reader := 1 + (writer+n/2)%(n-1)

	runID := cfg.tr.begin("Cluster.Run", cellID)
	access := func(p *sim.Proc, name string, f func()) {
		t0, sim0 := cfg.tr.now(), p.Now()
		f()
		if d := p.Now().Sub(sim0); d > 0 {
			out.layer["dsm.faulting_accesses"]++
			if cfg.tr != nil {
				cfg.tr.access(name, runID, t0, int64(sim0), int64(p.Now()))
				out.sample("fault_sim_ms", float64(d)/1e6)
			}
		}
	}

	elapsed := c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr, err := h0.DSM.Alloc(p, conv.Int32, fabricPerPage*fabricPages)
		if err != nil {
			panic(fmt.Sprintf("scale-fabric: alloc: %v", err))
		}
		// Migratory ring: every host writes one word of a rotating page
		// (pages 1..7; page 0 stays clean), so ownership never sits where
		// the directory last recorded it.
		for i := 0; i < n-1; i++ {
			h := 1 + (start+i)%(n-1)
			a := addr + dsm.Addr(4*fabricPerPage*(1+i%(fabricPages-1)))
			access(p, "write-fault", func() { c.Hosts[h].DSM.WriteInt32(p, a, int32(h)) })
		}
		// Full-copyset read: every host reads page 0.
		for h := 1; h < n; h++ {
			var got int32
			access(p, "read-fault", func() { got = c.Hosts[h].DSM.ReadInt32(p, addr) })
			out.check(got == 0, "scale-fabric %s/%v: host %d read %d from the clean hot page", topo, dir, h, got)
		}
		// One write invalidates them all, along the multicast tree or the
		// bus broadcast.
		access(p, "write-fault", func() { c.Hosts[writer].DSM.WriteInt32(p, addr, 42) })
		var got int32
		access(p, "read-fault", func() { got = c.Hosts[reader].DSM.ReadInt32(p, addr) })
		out.check(got == 42, "scale-fabric %s/%v: host %d read %d after the invalidating write, want 42", topo, dir, reader, got)
		// The last ring writer of each page still owns it.
		for pg := 1; pg < fabricPages && pg < n; pg++ {
			i := n - 2 - (n-2-(pg-1))%(fabricPages-1)
			want := int32(1 + (start+i)%(n-1))
			access(p, "read-fault", func() { got = h0.DSM.ReadInt32(p, addr+dsm.Addr(4*fabricPerPage*pg)) })
			out.check(got == want, "scale-fabric %s/%v: page %d holds %d, last ring writer was %d", topo, dir, pg, got, want)
		}
	})
	cfg.tr.end(runID)
	out.simS += elapsed.Seconds()

	addClusterStats(out, dg, c)
	dg.add(topo, dir, int64(elapsed))
	c.K.Shutdown()
}
