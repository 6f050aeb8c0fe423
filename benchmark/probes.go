package main

// Layer probes: small fixed workloads run against each layer's public
// API during the traced run, giving the unit costs (ns per handoff, MB/s
// per conversion kernel, …) the per-layer table reports. They are host
// time; each is the median of a few repetitions.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/remoteop"
	"repro/internal/sim"
	"repro/internal/threads"
	"repro/internal/vaxfloat"
)

const pageBytes = 8192

type prober struct {
	tr   *tracer
	cur  int32 // the running probe's span
	reps int
	// div shrinks operation counts under -quick.
	div  int
	vals map[string]float64
}

// measure runs f — which performs n operations — reps times inside a
// span and returns the median host nanoseconds per operation.
func (pr *prober) measure(name string, n int, f func()) float64 {
	pr.cur = pr.tr.begin("probe:"+name, -1)
	defer pr.tr.end(pr.cur)
	var ns []float64
	for i := 0; i < pr.reps; i++ {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return median(ns)
}

func (pr *prober) n(full int) int { return max(1, full/pr.div) }

// mallocs counts heap allocations made by f.
func mallocs(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

func mbPerS(nsPerPage float64) float64 { return pageBytes / nsPerPage * 1e9 / (1 << 20) }

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("probe: %v", err)) // probes use static, valid configurations
	}
}

func runProbes(tr *tracer, quick bool, vals map[string]float64) {
	pr := &prober{tr: tr, reps: 5, div: 1, vals: vals}
	if quick {
		pr.reps, pr.div = 1, 20
	}
	pr.simProbes()
	pr.wireProbes()
	pr.convProbes()
	pr.clusterProbes()
}

func (pr *prober) simProbes() {
	n := pr.n(20000)
	pr.vals["sim.handoff_ns"] = pr.measure("sim.handoff", 2*n, func() {
		k := sim.NewKernel(1)
		for i := 0; i < 2; i++ {
			k.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					p.Sleep(1)
				}
			})
		}
		k.Run()
	})

	n = pr.n(200000)
	pr.vals["sim.timer_event_ns"] = pr.measure("sim.timer_event", n, func() {
		k := sim.NewKernel(1)
		left := n
		var tick func(any)
		tick = func(arg any) {
			if left--; left > 0 {
				k.AfterNamedArg("tick", 1, tick, arg)
			}
		}
		k.AfterNamedArg("tick", 1, tick, nil)
		k.Run()
	})

	pr.vals["sim.spawn_shutdown_us"] = pr.measure("sim.spawn_shutdown", pr.n(100), func() {
		for i := 0; i < pr.n(100); i++ {
			k := sim.NewKernel(1)
			q := sim.NewQueue(k)
			for j := 0; j < 64; j++ {
				k.Spawn("server", func(p *sim.Proc) { q.Get(p) })
			}
			k.Run()
			k.Shutdown()
		}
	}) / 1e3
}

func (pr *prober) wireProbes() {
	par := model.Default()

	n := pr.n(20000)
	pr.vals["netsim.frame_ns"] = pr.measure("netsim.frame", n, func() {
		k := sim.NewKernel(1)
		net := netsim.New(k, &par)
		a, err := net.Attach(0)
		must(err)
		b, err := net.Attach(1)
		must(err)
		k.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				must(a.Send(p, netsim.Frame{From: 0, To: 1, Size: 1024}))
			}
		})
		k.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				b.Recv(p)
			}
		})
		k.Run()
		k.Shutdown()
	})

	n = pr.n(2000)
	body := make([]byte, pageBytes)
	pr.vals["remoteop.call_8k_ns"] = pr.measure("remoteop.call_8k", n, func() {
		k := sim.NewKernel(1)
		net := netsim.New(k, &par)
		var eps [2]*remoteop.Endpoint
		for i := range eps {
			ifc, err := net.Attach(netsim.HostID(i))
			must(err)
			eps[i] = remoteop.New(k, ifc, arch.Sun, &par)
		}
		eps[1].Handle(proto.KindEcho, func(p *sim.Proc, req *proto.Message) {
			bufpool.Put(req.TakeWire())
			eps[1].Reply(p, req, &proto.Message{Kind: proto.KindEchoReply})
		})
		eps[0].Start()
		eps[1].Start()
		k.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				resp, err := eps[0].Call(p, 1, &proto.Message{Kind: proto.KindEcho, Data: body})
				must(err)
				bufpool.Put(resp.TakeWire())
			}
		})
		k.Run()
		k.Shutdown()
	})

	n = pr.n(20000)
	msg := &proto.Message{Kind: proto.KindEcho, Page: 7, Args: []uint32{1, 2}, Data: body}
	wire := make([]byte, 0, msg.EncodedSize())
	var back proto.Message
	codec := func() {
		for i := 0; i < n; i++ {
			buf, err := msg.AppendEncode(wire)
			must(err)
			must(proto.DecodeBorrowInto(&back, buf))
		}
	}
	pr.vals["proto.codec_8k_ns"] = pr.measure("proto.codec_8k", n, codec)
	pr.vals["proto.codec_allocs"] = mallocs(codec) / float64(n)

	n = pr.n(200000)
	pr.vals["bufpool.getput_ns"] = pr.measure("bufpool.getput", n, func() {
		for i := 0; i < n; i++ {
			bufpool.Put(bufpool.Get(pageBytes))
		}
	})
}

func (pr *prober) convProbes() {
	reg := conv.NewRegistry()
	recID, err := reg.RegisterStruct("probe-record", stormRecord)
	must(err)
	page := make([]byte, pageBytes)
	for i := range page {
		page[i] = byte(i * 31)
	}
	n := pr.n(2000)
	convert := func(id conv.TypeID) func() {
		return func() {
			for i := 0; i < n; i++ {
				// Back and forth, so the page never drifts into values a
				// conversion would clamp.
				from, to := arch.SunArch, arch.FireflyArch
				if i%2 == 1 {
					from, to = to, from
				}
				_, err := reg.ConvertRegion(id, page, from, to, 0)
				must(err)
			}
		}
	}
	pr.vals["conv.int32_mb_per_s"] = mbPerS(pr.measure("conv.int32", n, convert(conv.Int32)))
	pr.vals["conv.float64_mb_per_s"] = mbPerS(pr.measure("conv.float64", n, convert(conv.Float64)))
	pr.vals["conv.struct_mb_per_s"] = mbPerS(pr.measure("conv.struct", n, convert(recID)))

	// An interval that touched every 16th element of an int32 page: the
	// sparse-write shape release consistency diffs.
	twin := append([]byte(nil), page...)
	for e := 0; e < pageBytes/4; e += 16 {
		page[e*4] ^= 0x5a
	}
	var d conv.Diff
	build := func() {
		for i := 0; i < n; i++ {
			d, err = reg.BuildDiff(conv.Int32, twin, page)
			must(err)
		}
	}
	apply := func() {
		for i := 0; i < n; i++ {
			must(reg.Apply(&d, twin))
		}
	}
	pr.vals["conv.diff_build_ns"] = pr.measure("conv.diff_build", n, build)
	pr.vals["conv.diff_apply_ns"] = pr.measure("conv.diff_apply", n, apply)
	pr.vals["conv.allocs_per_op"] = mallocs(func() {
		convert(conv.Int32)()
		convert(conv.Float64)()
		convert(recID)()
		build()
		apply()
	}) / float64(5*n)

	pr.vals["vaxfloat.f_region_mb_per_s"] = mbPerS(pr.measure("vaxfloat.f_region", n, func() {
		for i := 0; i < n/2; i++ {
			vaxfloat.IEEEToFRegion(page, true)
			vaxfloat.FToIEEERegion(page, true)
		}
	}))
	pr.vals["vaxfloat.g_region_mb_per_s"] = mbPerS(pr.measure("vaxfloat.g_region", n, func() {
		for i := 0; i < n/2; i++ {
			vaxfloat.IEEEToGRegion(page, true)
			vaxfloat.GToIEEERegion(page, true)
		}
	}))
}

func (pr *prober) clusterProbes() {
	build := func(hosts int, topo *netsim.Topology) *cluster.Cluster {
		specs := make([]cluster.HostSpec, hosts)
		for i := range specs {
			specs[i] = cluster.HostSpec{Kind: arch.Sun}
			if i%2 == 1 {
				specs[i].Kind = arch.Firefly
			}
		}
		c, err := cluster.New(cluster.Config{Hosts: specs, Seed: 1, Topology: topo})
		must(err)
		return c
	}

	pr.vals["cluster.new_ms_4"] = pr.measure("cluster.new_4", pr.n(100), func() {
		for i := 0; i < pr.n(100); i++ {
			build(4, nil).K.Shutdown()
		}
	}) / 1e6

	big := max(8, pr.n(fabricHosts))
	var c *cluster.Cluster
	pr.vals["cluster.new_ms_1024"] = pr.measure("cluster.new_1024", 1, func() {
		if c != nil {
			c.K.Shutdown()
		}
		c = build(big, fabricTopology(big))
	}) / 1e6
	// Shutdown only has work to do once the server loops have started.
	c.K.RunFor(time.Millisecond)
	pr.vals["cluster.shutdown_ms_1024"] = pr.measure("cluster.shutdown_1024", 1, func() {
		c.K.Shutdown()
		c = build(big, fabricTopology(big))
		c.K.RunFor(time.Millisecond)
	}) / 1e6
	c.K.Shutdown()

	c = build(2, nil)
	c.DefineSemaphore(1, 0, 1)
	c.Funcs.MustRegister(1, func(t *threads.Thread, _ []uint32) {})
	n := pr.n(2000)
	var hit, pv, create float64
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr, err := h0.DSM.Alloc(p, conv.Int32, 1024)
		must(err)
		buf := make([]int32, 1024)
		h0.DSM.WriteInt32s(p, addr, buf)
		hit = pr.measure("dsm.hit", n, func() {
			for i := 0; i < n; i++ {
				h0.DSM.ReadInt32s(p, addr, buf)
			}
		})
		remote := c.Hosts[1]
		pv = pr.measure("dsync.pv", n, func() {
			for i := 0; i < n; i++ {
				id := pr.tr.begin("P", pr.cur)
				remote.Sync.P(p, 1)
				pr.tr.end(id)
				id = pr.tr.begin("V", pr.cur)
				remote.Sync.V(p, 1)
				pr.tr.end(id)
			}
		})
		create = pr.measure("threads.create", n, func() {
			for i := 0; i < n; i++ {
				id := pr.tr.begin("CreateThread", pr.cur)
				h, err := h0.Threads.Create(p, 1, 1, nil)
				pr.tr.end(id)
				must(err)
				h.Join(p)
			}
		})
	})
	c.K.Shutdown()
	pr.vals["dsm.hit_ns"] = hit
	pr.vals["dsync.pv_host_us"] = pv / 1e3
	pr.vals["threads.create_host_us"] = create / 1e3
}
