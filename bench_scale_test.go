package mermaid

// Scaling benchmarks for the simulation substrate itself: how fast the
// kernel dispatches events and the network delivers frames when the
// cluster is two orders of magnitude bigger than the paper's (1024
// hosts instead of 5). These are wall-clock benchmarks of the
// simulator: developer tools, frozen nowhere. Each whole-scenario body
// is a function TestScenarioAllocCeilings (allocs_test.go) runs too,
// so what a scenario allocates is pinned in tier-1.

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkSimKernel1024Hosts stresses the event heap: 1024 processes
// sleeping staggered intervals keep ~1k timer events queued at every
// instant, which is the kernel-side shape of a 1024-host cluster run.
func BenchmarkSimKernel1024Hosts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simKernel1024Hosts()
	}
	events := float64(kernelHosts * kernelRounds * b.N)
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
}

const (
	kernelHosts  = 1024
	kernelRounds = 64
)

func simKernel1024Hosts() {
	k := sim.NewKernel(1)
	for h := 0; h < kernelHosts; h++ {
		h := h
		k.Spawn("host", func(p *sim.Proc) {
			d := time.Duration(h%37+1) * time.Microsecond
			for r := 0; r < kernelRounds; r++ {
				p.Sleep(d)
			}
		})
	}
	k.Run()
	k.Shutdown()
}

// BenchmarkSimProcHandoff measures one process activation — the kernel
// switching into a process and the process switching back at its next
// park — with an event heap of two: two processes alternating Sleep, so
// ns/op is the cost of a simulated context switch and little else.
func BenchmarkSimProcHandoff(b *testing.B) {
	k := sim.NewKernel(1)
	for i := 0; i < 2; i++ {
		k.Spawn("sleeper", func(p *sim.Proc) {
			for j := 0; j < b.N/2+1; j++ {
				p.Sleep(time.Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSimSpawnExit measures a short-lived process's whole life —
// Spawn, first activation, return — the shape of a remoteop message
// handler: one parent spawns children one at a time, each returning at
// once, so a child after the first runs on its predecessor's recycled
// coroutine.
func BenchmarkSimSpawnExit(b *testing.B) {
	k := sim.NewKernel(1)
	k.Spawn("parent", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			k.Spawn("child", func(*sim.Proc) {})
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkMCDFSBasic is the model checker's inner loop end to end: 150
// schedules of pruned DFS on the 2-host "basic" workload per op, each a
// cluster built, chooser-driven, fingerprinted where the strategy
// compares, oracle-checked and shut down.
func BenchmarkMCDFSBasic(b *testing.B) {
	op := mcDFSBasic(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(dfsSchedules*b.N)/b.Elapsed().Seconds(), "schedules/s")
}

const dfsSchedules = 150

func mcDFSBasic(tb testing.TB) func() {
	w, err := mc.Lookup("basic")
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		rep, err := mc.RunDFS(w, dsm.MutNone, mc.DFSOpts{MaxSchedules: dfsSchedules})
		if err != nil || rep.Violating != nil || rep.Schedules != dfsSchedules {
			tb.Fatalf("DFS on basic: %v, %s", err, rep)
		}
	}
}

// BenchmarkClusterStateHash is one state fingerprint as mc and chaos
// take it: every host's DSM and dsync state of a 3-host cluster folded
// into one FNV-64, with four full 8 KB pages resident on every host.
func BenchmarkClusterStateHash(b *testing.B) {
	op := clusterStateHash(b)
	b.ReportAllocs()
	b.SetBytes(3 * hashPages * 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

const hashPages = 4

func clusterStateHash(tb testing.TB) func() {
	params := model.Default()
	c, err := cluster.New(cluster.Config{
		Hosts:     []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}, {Kind: arch.Sun}},
		PageSize:  8192,
		SpaceSize: 2 * hashPages * 8192,
		Params:    &params,
		Seed:      1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	c.Run(0, func(p *sim.Proc, h *cluster.Host) {
		vals := make([]int32, hashPages*8192/4)
		for i := range vals {
			vals[i] = int32(i * 40503)
		}
		addr, err := h.DSM.Alloc(p, conv.Int32, len(vals))
		if err != nil {
			panic(err)
		}
		h.DSM.WriteInt32s(p, addr, vals)
		for _, reader := range c.Hosts[1:] {
			reader.DSM.ReadInt32s(p, addr, vals)
		}
	})
	return func() {
		h := fnv.New64a()
		c.WriteStateHash(h)
		benchSink += h.Sum64()
	}
}

// benchSink keeps measured results live.
var benchSink uint64

// BenchmarkBusInvalidation measures the broadcast-invalidation
// delivery path at 1024 hosts on the one-segment bus: one sender
// broadcasts frames, every other interface drains them — the netsim
// shape of a full-copyset write invalidation.
func BenchmarkBusInvalidation(b *testing.B) {
	benchBroadcastStorm(b, nil)
}

// BenchmarkSwitchedInvalidation is the same storm on the switched
// topology (32 segments of 32 hosts): broadcasts expand along the
// multicast tree, so the cross-segment cost is one frame per segment
// instead of one per receiver.
func BenchmarkSwitchedInvalidation(b *testing.B) {
	benchBroadcastStorm(b, netsim.SwitchedStar(32, 32))
}

func benchBroadcastStorm(b *testing.B, topo *netsim.Topology) {
	op := broadcastStorm(b, topo)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
	deliveries := float64((stormHosts - 1) * stormFrames * b.N)
	b.ReportMetric(deliveries/b.Elapsed().Seconds(), "frames/s")
}

const (
	stormHosts  = 1024
	stormFrames = 8
)

func broadcastStorm(tb testing.TB, topo *netsim.Topology) func() {
	params := model.Default()
	return func() {
		k := sim.NewKernel(1)
		n := netsim.NewWithTopology(k, &params, topo)
		ifaces := make([]*netsim.Interface, stormHosts)
		for h := 0; h < stormHosts; h++ {
			ifc, err := n.Attach(netsim.HostID(h))
			if err != nil {
				tb.Fatal(err)
			}
			ifaces[h] = ifc
		}
		for h := 1; h < stormHosts; h++ {
			ifc := ifaces[h]
			k.Spawn("rx", func(p *sim.Proc) {
				for f := 0; f < stormFrames; f++ {
					ifc.Recv(p)
				}
			})
		}
		k.Spawn("tx", func(p *sim.Proc) {
			for f := 0; f < stormFrames; f++ {
				if err := ifaces[0].Send(p, netsim.Frame{From: 0, To: netsim.Broadcast, Size: 64}); err != nil {
					panic(err)
				}
			}
		})
		k.Run()
		k.Shutdown()
	}
}
