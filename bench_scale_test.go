package mermaid

// Scaling benchmarks for the simulation substrate itself: how fast the
// kernel dispatches events and the network delivers frames when the
// cluster is two orders of magnitude bigger than the paper's (1024
// hosts instead of 5). These are wall-clock benchmarks of the
// simulator; the events/s and frames/s metrics feed the before/after
// table in EXPERIMENTS.md ("Wall-clock performance") via BENCH.json.

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
	const hosts = 1024
	const rounds = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		for h := 0; h < hosts; h++ {
			h := h
			k.Spawn("host", func(p *sim.Proc) {
				d := time.Duration(h%37+1) * time.Microsecond
				for r := 0; r < rounds; r++ {
					p.Sleep(d)
				}
			})
		}
		k.Run()
		k.Shutdown()
	}
	b.StopTimer()
	events := float64(hosts * rounds * b.N)
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
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
	const schedules = 150
	w, err := mc.Lookup("basic")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := mc.RunDFS(w, dsm.MutNone, mc.DFSOpts{MaxSchedules: schedules})
		if err != nil || rep.Violating != nil || rep.Schedules != schedules {
			b.Fatalf("DFS on basic: %v, %s", err, rep)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(schedules*b.N)/b.Elapsed().Seconds(), "schedules/s")
}

// BenchmarkClusterStateHash is one state fingerprint as mc and chaos
// take it: every host's DSM and dsync state of a 3-host cluster folded
// into one FNV-64, with four full 8 KB pages resident on every host.
func BenchmarkClusterStateHash(b *testing.B) {
	const pages = 4
	params := model.Default()
	c, err := cluster.New(cluster.Config{
		Hosts:     []cluster.HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}, {Kind: arch.Sun}},
		PageSize:  8192,
		SpaceSize: 2 * pages * 8192,
		Params:    &params,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Run(0, func(p *sim.Proc, h *cluster.Host) {
		vals := make([]int32, pages*8192/4)
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
	b.ReportAllocs()
	b.SetBytes(3 * pages * 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := fnv.New64a()
		for _, host := range c.Hosts {
			host.DSM.WriteStateHash(h)
			host.Sync.WriteStateHash(h)
		}
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
	const hosts = 1024
	const frames = 8
	params := model.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		n := netsim.NewWithTopology(k, &params, topo)
		ifaces := make([]*netsim.Interface, hosts)
		for h := 0; h < hosts; h++ {
			ifc, err := n.Attach(netsim.HostID(h))
			if err != nil {
				b.Fatal(err)
			}
			ifaces[h] = ifc
		}
		for h := 1; h < hosts; h++ {
			ifc := ifaces[h]
			k.Spawn("rx", func(p *sim.Proc) {
				for f := 0; f < frames; f++ {
					ifc.Recv(p)
				}
			})
		}
		k.Spawn("tx", func(p *sim.Proc) {
			for f := 0; f < frames; f++ {
				if err := ifaces[0].Send(p, netsim.Frame{From: 0, To: netsim.Broadcast, Size: 64}); err != nil {
					panic(err)
				}
			}
		})
		k.Run()
		k.Shutdown()
	}
	b.StopTimer()
	deliveries := float64((hosts - 1) * frames * b.N)
	b.ReportMetric(deliveries/b.Elapsed().Seconds(), "frames/s")
}
